package campaign

// Sharded campaign supervision, the one implementation behind the
// greenbench CLI's -shards and daemon shard jobs, and the shard worker
// both of them start. The split of responsibilities:
//
//   - internal/shard owns supervision mechanics: launching, heartbeat
//     watchdog, retry with backoff, bisection, quarantine decisions.
//   - internal/suite owns the deterministic half: journal segments,
//     their axis-order merge, and the resume machinery that turns the
//     merged journal into results/trace/metrics byte-identical to a
//     single-process run.
//   - SuperviseShards glues them: hands each worker its assignment (a
//     WorkerSpec, written as JSON on the worker's stdin), seeds segments
//     on resume, records quarantined cells, merges worker segments into
//     the canonical journal, and writes the optional wall-clock
//     supervisor timeline. RunShardWorker is the other end of the pipe:
//     it reads the WorkerSpec, resolves its job like any other, and runs
//     the cells. A front end supplies only a WorkerFactory (which names
//     its own executable) and a Monitor func.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/ops"
	"repro/internal/shard"
	"repro/internal/suite"
)

// SegmentPath names shard i's journal segment next to the canonical
// journal.
func SegmentPath(journal string, i int) string {
	return fmt.Sprintf("%s.shard-%d", journal, i)
}

// WorkerSpec is one shard worker's assignment: the document
// SuperviseShards writes as JSON on the worker's stdin and
// RunShardWorker reads back. Job is the campaign as the front end
// resolved it, with any machine spec and fault plan inline, so the
// worker settles it through the same JobSpec.Resolve as the CLI and
// POST /jobs.
type WorkerSpec struct {
	// Task is the shard's axis slice; Segment its private journal.
	Task    shard.Task `json:"task"`
	Segment string     `json:"segment"`
	Job     JobSpec    `json:"job"`
	// CellPause is Resolved.CellPause at full precision, which the CLI's
	// -cellpause may set below the job's millisecond field.
	CellPause time.Duration `json:"cell_pause"`
	// Traced asks the worker to journal cell traces and metric ops.
	Traced bool `json:"traced"`
	// Tick is the worker's heartbeat interval.
	Tick time.Duration `json:"tick"`
}

// WorkerFactory builds (without starting) a shard-worker process. The
// supervisor owns the command's stdin, where it writes the WorkerSpec,
// and its stdout, the heartbeat channel: the factory must leave both
// nil.
type WorkerFactory func() (*exec.Cmd, error)

// ShardPlan configures one sharded-sweep supervision pass.
type ShardPlan struct {
	// JournalPath is the canonical journal the worker segments merge into
	// (required).
	JournalPath string
	// Campaign identifies the cells, the shard count and what each
	// worker computes.
	Campaign *Resolved
	// Axis is the sweep's process axis, partitioned across the shards.
	Axis []int
	// Resume seeds each segment with the canonical journal's completed
	// cells, so relaunched workers skip them.
	Resume bool
	// Worker builds the worker process for each task (required).
	Worker WorkerFactory
	// Traced asks the workers to journal cell traces and metric ops,
	// which the render pass replays into the campaign's tracer.
	Traced bool
	// HeartbeatTimeout and MaxRetries tune the supervisor (see
	// shard.Spec); the workers heartbeat five times per timeout.
	HeartbeatTimeout time.Duration
	MaxRetries       int
	// Logger, when non-nil, receives the supervisor's per-event records.
	Logger *slog.Logger
	// Monitor, when non-nil, receives every shard lifecycle event; it is
	// called concurrently. Both front ends pass a func that publishes the
	// event on their live Hub (Hub.Shard) and then does their own
	// bookkeeping: the CLI dumps its flight recorder on a lost shard, the
	// daemon updates the job's per-shard status.
	Monitor func(shard.Event)
	// Logf, when non-nil, receives the end-of-pass summary lines.
	Logf func(format string, args ...any)
	// Timeline, when non-empty, is where the wall-clock supervisor
	// timeline (a Chrome trace of the same lifecycle events) is written.
	// It observes the same events as Monitor only, so it cannot touch
	// the campaign's bytes.
	Timeline string
}

func (p *ShardPlan) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

// SuperviseShards runs the sweep's axis as supervised worker processes
// and leaves the canonical journal holding every cell: the workers'
// merged segments plus StatusQuarantined records for cells lost to a
// poison shard. The caller then renders the campaign through the
// ordinary resume path (suite.RunCampaign does this via its Supervise
// hook).
func SuperviseShards(p ShardPlan) error {
	if p.JournalPath == "" {
		return fmt.Errorf("campaign: sharded sweep needs a checkpoint journal path")
	}
	if p.Worker == nil {
		return fmt.Errorf("campaign: sharded sweep needs a worker factory")
	}
	c := p.Campaign
	journal, err := suite.OpenJournal(p.JournalPath)
	if err != nil {
		return err
	}
	if err := journal.Bind(c.Benchmarks); err != nil {
		return err
	}
	tick := p.HeartbeatTimeout / 5
	if tick <= 0 {
		tick = time.Second
	}

	tasks := shard.Partition(p.Axis, c.Job.Shards)
	segments := make([]string, len(tasks))
	for i, t := range tasks {
		segments[i] = SegmentPath(p.JournalPath, t.Shard)
		if !p.Resume {
			// A fresh campaign must not inherit cells from an abandoned one.
			if err := os.Remove(segments[i]); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		// On resume, seed each segment with the cells the canonical journal
		// already holds for its procs, so relaunched workers skip them.
		// Quarantined records are not seeded: a user-driven resume re-runs
		// those cells.
		seg, err := suite.OpenJournal(segments[i])
		if err != nil {
			return err
		}
		if err := seg.Bind(c.Benchmarks); err != nil {
			return err
		}
		for _, procs := range t.Procs {
			for _, b := range c.Benchmarks {
				key := suite.CellKey(c.Spec.Name, procs, c.Placement.String(), b)
				if _, ok := seg.Lookup(key); ok {
					continue
				}
				if run, ok := journal.Lookup(key); ok && run.Status != suite.StatusQuarantined {
					tr, _ := journal.LookupTrace(key)
					seg.Stage(key, run, tr)
				}
			}
		}
		if err := seg.Flush(); err != nil {
			return err
		}
	}

	var tl *ops.Timeline
	if p.Timeline != "" {
		tl = ops.NewTimeline()
	}
	rep, err := shard.Run(shard.Spec{
		Tasks: tasks,
		Start: func(t shard.Task) (*exec.Cmd, error) {
			doc, err := json.Marshal(WorkerSpec{
				Task: t, Segment: segments[t.Shard], Job: c.Job,
				CellPause: c.CellPause, Traced: p.Traced, Tick: tick,
			})
			if err != nil {
				return nil, err
			}
			cmd, err := p.Worker()
			if err != nil {
				return nil, err
			}
			cmd.Stdin = bytes.NewReader(doc)
			return cmd, nil
		},
		HeartbeatTimeout: p.HeartbeatTimeout,
		MaxRetries:       p.MaxRetries,
		Logger:           p.Logger,
		Monitor: func(e shard.Event) {
			if p.Monitor != nil {
				p.Monitor(e)
			}
			tl.Observe(e)
		},
	})
	if tl != nil {
		if werr := tl.WriteFile(p.Timeline); werr != nil {
			p.logf("ops timeline write failed: %v", werr)
		} else {
			p.logf("wrote %s (supervisor timeline, wall-clock)", p.Timeline)
		}
	}
	if err != nil {
		return err
	}

	// Merge whatever the workers checkpointed, in deterministic axis
	// order; reopen each segment so the workers' writes are visible.
	var segs []*suite.Journal
	for _, path := range segments {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			continue
		}
		seg, err := suite.OpenJournal(path)
		if err != nil {
			return fmt.Errorf("reading shard segment: %w", err)
		}
		segs = append(segs, seg)
	}
	missing, err := suite.MergeShardJournals(journal, segs, c.Spec.Name, c.Placement.String(), p.Axis, c.Benchmarks)
	if err != nil {
		return err
	}

	// Cells no segment supplied must all belong to quarantined axis
	// points; record them explicitly so the campaign degrades to a
	// partial result instead of failing.
	reasons := map[int]string{}
	for _, q := range rep.Quarantined {
		reasons[q.Procs] = q.Reason
	}
	missingSet := map[string]bool{}
	for _, key := range missing {
		missingSet[key] = true
	}
	quarantined := 0
	for _, procs := range p.Axis {
		reason, ok := reasons[procs]
		if !ok {
			continue
		}
		for _, b := range c.Benchmarks {
			key := suite.CellKey(c.Spec.Name, procs, c.Placement.String(), b)
			if !missingSet[key] {
				continue // the worker checkpointed it before dying
			}
			journal.Stage(key, QuarantinedRun(b, reason), suite.CellTrace{})
			delete(missingSet, key)
			quarantined++
		}
	}
	if len(missingSet) > 0 {
		var keys []string
		for key := range missingSet {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		return fmt.Errorf("shard workers finished without checkpointing %d cell(s): %s", len(keys), strings.Join(keys, ", "))
	}
	if err := journal.Flush(); err != nil {
		return err
	}
	for _, path := range segments {
		os.Remove(path) // merged; the canonical journal holds everything now
	}

	p.logf("sharded sweep: %d worker launch(es), %d loss(es); merged %d segment(s) into %s",
		rep.Launches, rep.Losses, len(segs), journal.Path())
	if quarantined > 0 {
		p.logf("sharded sweep: %d cell(s) quarantined after retries and bisection", quarantined)
	}
	return nil
}

// RunShardWorker is the shard-worker process: it reads its WorkerSpec
// from in, resolves the job, runs the assigned axis slice on one worker,
// checkpoints every cell (with its cell-relative trace and metric ops
// when Traced) into the private journal segment, and heartbeats on out.
// out belongs to the supervisor's watchdog: no results are printed. The
// segment is opened in resume mode unconditionally, so a relaunched
// worker skips everything its predecessor checkpointed. The assignment
// comes from outside the process, so anything incomplete or invalid is
// an error before any cell runs.
func RunShardWorker(in io.Reader, out io.Writer) error {
	w, job, err := readWorkerSpec(in)
	if err != nil {
		return err
	}
	pf, err := faults.ProcFaultFromEnv()
	if err != nil {
		return err
	}
	journal, err := suite.OpenJournal(w.Segment)
	if err != nil {
		return err
	}
	if err := journal.Bind(job.Benchmarks); err != nil {
		return err
	}
	var tracer *obs.Tracer
	if w.Traced {
		tracer = obs.NewTracer()
	}

	beats := shard.NewBeatWriter(out, w.Task.Shard)
	beats.Hello()
	stop := shard.StartTicks(beats, w.Tick)
	defer stop()
	fire := func(d int) {
		if pf.Fires(w.Task.Shard, d) {
			stop()
			pf.Fire(beats.Mute)
		}
	}
	fire(0)

	cs := job.CampaignSpec()
	_, err = suite.RunSweepPlan(suite.SweepPlan{
		Axis:    w.Task.Procs,
		Trace:   tracer,
		Journal: journal,
		AfterCheckpoint: func(key string, done int64) error {
			beats.Cell(key)
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

// readWorkerSpec decodes a shard worker's assignment from in, checks it
// and resolves its job, with the worker's cell pause applied. It starts
// nothing and touches no file, so every refusal comes before a worker
// heartbeats or opens its segment.
func readWorkerSpec(in io.Reader) (WorkerSpec, *Resolved, error) {
	var w WorkerSpec
	if err := json.NewDecoder(in).Decode(&w); err != nil {
		return w, nil, fmt.Errorf("shard worker: reading its assignment: %w", err)
	}
	if len(w.Task.Procs) == 0 {
		return w, nil, fmt.Errorf("shard worker: assignment holds no process counts")
	}
	for _, p := range w.Task.Procs {
		if p < 1 {
			return w, nil, fmt.Errorf("shard worker: assignment entry %d is not a process count", p)
		}
	}
	if w.Segment == "" {
		return w, nil, fmt.Errorf("shard worker: assignment names no journal segment")
	}
	job, err := w.Job.Resolve()
	if err != nil {
		return w, nil, err
	}
	for _, p := range w.Task.Procs {
		if total := job.Spec.TotalCores(); p > total {
			return w, nil, fmt.Errorf("shard worker: assignment entry %d exceeds the %d cores of %s", p, total, job.Spec.Name)
		}
	}
	job.CellPause = w.CellPause
	return w, job, nil
}

// QuarantinedRun is the journal record for a cell lost to a poison
// shard: no measurement, status quarantined, the supervisor's reason as
// the error. OK() is false, so the rendered campaign is Degraded and TGI
// over it covers only the surviving cells.
func QuarantinedRun(benchName, reason string) suite.BenchmarkRun {
	m := core.Measurement{Benchmark: benchName}
	if w, ok := bench.Lookup(benchName); ok {
		m.Metric = w.Metric()
	}
	return suite.BenchmarkRun{
		Measurement: m,
		Status:      suite.StatusQuarantined,
		Error:       reason,
	}
}
