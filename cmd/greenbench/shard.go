package main

// Sharded sweeps: -shards N partitions the process axis across N
// supervised greenbench worker processes (crash isolation), then renders
// the campaign from the merged journal. The split of responsibilities:
//
//   - internal/shard owns supervision mechanics: launching, heartbeat
//     watchdog, retry with backoff, bisection, quarantine decisions.
//   - internal/suite owns the deterministic half: journal segments,
//     their axis-order merge, and the resume machinery that turns the
//     merged journal into results/trace/metrics byte-identical to a
//     single-process run.
//   - internal/campaign glues them (SuperviseShards): seeds segments on
//     resume, merges worker segments, records quarantined cells. It is
//     shared with the daemon, so CLI and server shard jobs behave
//     identically.
//   - This file keeps what only the CLI knows: worker argv construction
//     and the bridge from shard lifecycle events onto the live plane.

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
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
// processes and leaves the canonical journal holding every cell: the
// workers' merged segments plus StatusQuarantined records for cells lost
// to a poison shard. The caller then renders the campaign through the
// ordinary resume path.
func superviseShards(o *options, spec *cluster.Spec, pl cluster.Placement, benches []string, axis []int, ls *liveState) error {
	path := o.journalFile()
	if path == "" {
		return fmt.Errorf("-shards needs a checkpoint journal: pass -o or -journal")
	}
	start := o.workerCommand
	if start == nil {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolving worker executable: %w", err)
		}
		start = func(t shard.Task, segment string) (*exec.Cmd, error) {
			cmd := exec.Command(exe, workerArgs(*o, benches, t, segment)...)
			cmd.Stderr = os.Stderr
			return cmd, nil
		}
	}
	// The supervisor timeline rides along as a second monitor: lifecycle
	// events fan out to both the live plane and the wall-clock trace, and
	// neither can perturb the deterministic artefacts (the journal merge
	// never sees them).
	mon := shard.Monitor(shardMonitor{hub: ls.Hub(), ls: ls})
	var tl *ops.Timeline
	if o.opsTracePath != "" {
		tl = ops.NewTimeline()
		mon = shard.Monitors(mon, tl)
	}
	err := campaign.SuperviseShards(campaign.ShardPlan{
		JournalPath:      path,
		Spec:             spec,
		Placement:        pl,
		Benchmarks:       benches,
		Axis:             axis,
		Shards:           o.shards,
		Resume:           o.resume,
		Start:            start,
		HeartbeatTimeout: o.shardTimeout,
		MaxRetries:       o.shardRetries,
		Log:              os.Stderr,
		Monitor:          mon,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if tl != nil {
		if werr := tl.WriteFile(o.opsTracePath); werr != nil {
			fmt.Fprintf(os.Stderr, "greenbench: ops timeline write failed: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s (supervisor timeline, wall-clock)\n", o.opsTracePath)
		}
	}
	return err
}

// workerArgs builds the argv of one shard worker: the hidden worker-mode
// flags plus the subset of the parent's flags that decide what the cells
// compute. Flags that only shape parent-side output (-o, -trace, -serve,
// …) are deliberately absent — a worker's sole artifact is its segment.
func workerArgs(o options, benches []string, t shard.Task, segment string) []string {
	procs := make([]string, len(t.Procs))
	for i, p := range t.Procs {
		procs[i] = strconv.Itoa(p)
	}
	tick := o.shardTimeout / 5
	if tick <= 0 {
		tick = time.Second
	}
	args := []string{
		"-shard-worker", strconv.Itoa(t.Shard),
		"-shard-axis", strings.Join(procs, ","),
		"-journal", segment,
		"-shard-tick", tick.String(),
		"-placement", o.placement,
		"-bench", strings.Join(benches, ","),
	}
	if o.specPath != "" {
		args = append(args, "-spec", o.specPath)
	} else {
		args = append(args, "-system", o.system)
	}
	if o.traced() {
		// The parent will replay cell traces and metric ops out of the
		// merged journal; the workers must record them.
		args = append(args, "-shard-trace")
	}
	if o.faultsPath != "" {
		args = append(args, "-faults", o.faultsPath)
	}
	if o.retries > 0 {
		args = append(args, "-retries", strconv.Itoa(o.retries))
	}
	if o.timeout > 0 {
		args = append(args, "-timeout", strconv.FormatFloat(o.timeout, 'g', -1, 64))
	}
	if o.cellPause > 0 {
		args = append(args, "-cellpause", o.cellPause.String())
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
// axis slice on one worker, checkpoint every cell (with its cell-relative
// trace and metric ops when the parent asked for observability) into the
// private journal segment, and heartbeat on stdout. Stdout belongs to
// the supervisor's watchdog — no results are printed. The segment is
// opened in resume mode unconditionally, so a relaunched worker skips
// everything its predecessor checkpointed.
func runShardWorker(o options, spec *cluster.Spec, pl cluster.Placement, benches []string, plan *faults.Plan) error {
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
	if err := journal.Bind(benches); err != nil {
		return err
	}
	var tracer *obs.Tracer
	if o.shardTrace {
		tracer = obs.NewTracer()
	}

	beats := shard.NewBeatWriter(os.Stdout, o.shardWorker)
	total := len(axis) * len(benches)
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

	_, err = suite.RunSweepPlan(suite.SweepPlan{
		Axis:    axis,
		Trace:   tracer,
		Journal: journal,
		AfterCheckpoint: func(key string, done int64) error {
			beats.Cell(key, int(done), total)
			fire(int(done))
			return nil
		},
		Configure: func(procs int) (suite.Config, error) {
			if o.cellPause > 0 {
				time.Sleep(o.cellPause)
			}
			cfg := suite.DefaultConfig(spec, procs)
			cfg.Placement = pl
			cfg.Benchmarks = benches
			cfg.Faults = plan
			cfg.Retry = o.retryPolicy()
			return cfg, nil
		},
	})
	if err != nil {
		return err
	}
	beats.Done()
	return nil
}
