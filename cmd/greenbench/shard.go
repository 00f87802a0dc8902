package main

// Shard workers, the CLI's half of sharded sweeps (-shards N). What the
// cells compute, how workers are supervised and what a worker is told
// live in internal/campaign and are shared with daemon shard jobs:
// campaign.SuperviseShards partitions the axis, writes each worker's
// assignment (a campaign.WorkerSpec) as JSON on its stdin, watches
// heartbeats, merges segments and writes the -ops-trace timeline, and
// campaign.RunShardWorker is the worker. This file keeps what only the
// binary knows: the factory that re-executes it with the hidden
// -shard-worker flag, for both the CLI and the daemon, and the bridge
// from shard lifecycle events onto the live plane.

import (
	"fmt"
	"log/slog"
	"os"
	"os/exec"

	"repro/internal/campaign"
	"repro/internal/obs/live"
)

// shardMonitor bridges supervisor lifecycle events to the live plane and
// dumps the flight recorder when a shard is lost — the post-mortem ring
// then holds the campaign's last moments alongside the loss itself.
type shardMonitor struct {
	hub *live.Hub
	ls  *liveState
}

func (m shardMonitor) ShardStarted(shard, attempt, cells int) {
	m.hub.ShardStarted(shard, attempt, cells)
}

func (m shardMonitor) ShardLost(shard int, reason string) {
	m.hub.ShardLost(shard, reason)
	m.ls.dump(fmt.Sprintf("shard %d lost: %s", shard, reason))
}

func (m shardMonitor) ShardFinished(shard int) { m.hub.ShardFinished(shard) }

func (m shardMonitor) ShardQuarantined(shard, procs int, reason string) {
	m.hub.ShardQuarantined(shard, procs, reason)
}

// superviseShards runs the sweep's axis as o.shards supervised worker
// processes and leaves the canonical journal holding every cell. The
// caller then renders the campaign through the ordinary resume path.
func superviseShards(o options, job *campaign.Resolved, axis []int, ls *liveState) error {
	worker, err := o.workerFactory()
	if err != nil {
		return err
	}
	return campaign.SuperviseShards(campaign.ShardPlan{
		JournalPath:      o.journalFile(),
		Campaign:         job,
		Axis:             axis,
		Resume:           o.resume,
		Worker:           worker,
		Traced:           o.traced(),
		HeartbeatTimeout: o.shardTimeout,
		MaxRetries:       o.shardRetries,
		Logger:           slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Monitor:          shardMonitor{hub: ls.Hub(), ls: ls},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Timeline: o.opsTracePath,
	})
}

// workerFactory is how both a sharded sweep and the daemon start shard
// workers: this binary, re-executed in worker mode.
func (o options) workerFactory() (campaign.WorkerFactory, error) {
	if o.worker != nil {
		return o.worker, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving worker executable: %w", err)
	}
	return func() (*exec.Cmd, error) {
		cmd := exec.Command(exe, "-shard-worker")
		cmd.Stderr = os.Stderr
		return cmd, nil
	}, nil
}
