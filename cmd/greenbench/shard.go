package main

// Shard workers, the CLI's half of sharded sweeps (-shards N). What the
// cells compute and how workers are supervised live in internal/campaign
// and are shared with daemon shard jobs: the campaign resolves through
// campaign.JobSpec, and campaign.SuperviseShards partitions the axis,
// describes each worker as a campaign.WorkerSpec, watches heartbeats,
// merges segments and writes the -ops-trace timeline. This file keeps
// what only the binary knows: the one argv a WorkerSpec becomes
// (workerArgs), the factory that execs it for both the CLI and the
// daemon, the hidden worker mode that argv selects, and the bridge from
// shard lifecycle events onto the live plane.

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/shard"
	"repro/internal/suite"
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
		Log:              os.Stderr,
		Monitor:          shardMonitor{hub: ls.Hub(), ls: ls},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		Timeline: o.opsTracePath,
	})
}

// workerFactory is how both a sharded sweep and the daemon start shard
// workers: this binary, re-executed with workerArgs.
func (o options) workerFactory() (campaign.WorkerFactory, error) {
	if o.worker != nil {
		return o.worker, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving worker executable: %w", err)
	}
	return func(w campaign.WorkerSpec) (*exec.Cmd, error) {
		cmd := exec.Command(exe, workerArgs(w)...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	}, nil
}

// workerArgs builds the argv of one shard worker: the hidden worker-mode
// flags plus the flags that decide what the cells compute. Flags that
// only shape parent-side output (-o, -trace, -serve, …) are deliberately
// absent — a worker's sole artifact is its segment.
func workerArgs(w campaign.WorkerSpec) []string {
	procs := make([]string, len(w.Task.Procs))
	for i, p := range w.Task.Procs {
		procs[i] = strconv.Itoa(p)
	}
	args := []string{
		"-shard-worker", strconv.Itoa(w.Task.Shard),
		"-shard-axis", strings.Join(procs, ","),
		"-journal", w.Segment,
		"-shard-tick", w.Tick.String(),
		"-placement", w.Placement,
		"-bench", strings.Join(w.Benchmarks, ","),
	}
	if w.SpecFile != "" {
		args = append(args, "-spec", w.SpecFile)
	} else {
		args = append(args, "-system", w.System)
	}
	if w.Traced {
		// The parent will replay cell traces and metric ops out of the
		// merged journal; the workers must record them.
		args = append(args, "-shard-trace")
	}
	if w.FaultsFile != "" {
		args = append(args, "-faults", w.FaultsFile)
	}
	if w.Retries > 0 {
		args = append(args, "-retries", strconv.Itoa(w.Retries))
	}
	if w.TimeoutSeconds > 0 {
		args = append(args, "-timeout", strconv.FormatFloat(w.TimeoutSeconds, 'g', -1, 64))
	}
	if w.CellPause > 0 {
		args = append(args, "-cellpause", w.CellPause.String())
	}
	return args
}

// parseAxis decodes the worker's -shard-axis value.
func parseAxis(s string) ([]int, error) {
	var axis []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.Atoi(part)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-shard-axis entry %q is not a process count", part)
		}
		axis = append(axis, p)
	}
	if len(axis) == 0 {
		return nil, fmt.Errorf("-shard-axis %q holds no process counts", s)
	}
	return axis, nil
}

// runShardWorker is greenbench's hidden worker mode: run the assigned
// axis slice of the resolved campaign on one worker, checkpoint every
// cell (with its cell-relative trace and metric ops when the parent
// asked for observability) into the private journal segment, and
// heartbeat on stdout. Stdout belongs to the supervisor's watchdog — no
// results are printed. The segment is opened in resume mode
// unconditionally, so a relaunched worker skips everything its
// predecessor checkpointed.
func runShardWorker(o options, job *campaign.Resolved) error {
	axis, err := parseAxis(o.shardAxis)
	if err != nil {
		return err
	}
	if o.journalPath == "" {
		return fmt.Errorf("shard worker needs -journal (its segment file)")
	}
	pf, err := faults.ProcFaultFromEnv()
	if err != nil {
		return err
	}
	journal, err := suite.OpenJournal(o.journalPath)
	if err != nil {
		return err
	}
	if err := journal.Bind(job.Benchmarks); err != nil {
		return err
	}
	var tracer *obs.Tracer
	if o.shardTrace {
		tracer = obs.NewTracer()
	}

	beats := shard.NewBeatWriter(os.Stdout, o.shardWorker)
	total := len(axis) * len(job.Benchmarks)
	beats.Hello(total)
	stop := shard.StartTicks(beats, o.shardTick)
	defer stop()
	fire := func(d int) {
		if pf.Fires(o.shardWorker, d) {
			stop()
			pf.Fire(beats.Mute)
		}
	}
	fire(0)

	cs := job.CampaignSpec()
	_, err = suite.RunSweepPlan(suite.SweepPlan{
		Axis:    axis,
		Trace:   tracer,
		Journal: journal,
		AfterCheckpoint: func(key string, done int64) error {
			beats.Cell(key, int(done), total)
			fire(int(done))
			return nil
		},
		Configure: cs.Configure,
	})
	if err != nil {
		return err
	}
	beats.Done()
	return nil
}
