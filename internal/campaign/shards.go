package campaign

// Sharded campaign supervision, shared by the greenbench CLI (-shards)
// and daemon shard jobs. The split of responsibilities:
//
//   - internal/shard owns supervision mechanics: launching, heartbeat
//     watchdog, retry with backoff, bisection, quarantine decisions.
//   - internal/suite owns the deterministic half: journal segments,
//     their axis-order merge, and the resume machinery that turns the
//     merged journal into results/trace/metrics byte-identical to a
//     single-process run.
//   - SuperviseShards glues them: seeds segments on resume, records
//     quarantined cells, and merges worker segments into the canonical
//     journal. How a worker process is built stays with the caller
//     (Start), because only the front end knows its own argv.

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/suite"
)

// SegmentPath names shard i's journal segment next to the canonical
// journal.
func SegmentPath(journal string, i int) string {
	return fmt.Sprintf("%s.shard-%d", journal, i)
}

// ShardPlan configures one sharded-sweep supervision pass.
type ShardPlan struct {
	// JournalPath is the canonical journal the worker segments merge into
	// (required).
	JournalPath string
	// Spec, Placement and Benchmarks identify the campaign's cells.
	Spec       *cluster.Spec
	Placement  cluster.Placement
	Benchmarks []string
	// Axis is the sweep's process axis, partitioned across Shards workers.
	Axis   []int
	Shards int
	// Resume seeds each segment with the canonical journal's completed
	// cells, so relaunched workers skip them.
	Resume bool
	// Start builds (without starting) the worker process for a task,
	// checkpointing into segment (required). See shard.Spec.Start.
	Start func(t shard.Task, segment string) (*exec.Cmd, error)
	// HeartbeatTimeout and MaxRetries tune the supervisor (see shard.Spec).
	HeartbeatTimeout time.Duration
	MaxRetries       int
	// Log, when non-nil, receives the supervisor's per-event lines.
	Log io.Writer
	// Logger, when non-nil, receives structured supervision events.
	Logger *slog.Logger
	// Monitor, when non-nil, receives shard lifecycle events (the live
	// Hub satisfies it structurally).
	Monitor shard.Monitor
	// Logf, when non-nil, receives the end-of-pass summary lines.
	Logf func(format string, args ...any)
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
	if p.Start == nil {
		return fmt.Errorf("campaign: sharded sweep needs a worker factory")
	}
	journal, err := suite.OpenJournal(p.JournalPath)
	if err != nil {
		return err
	}
	if err := journal.Bind(p.Benchmarks); err != nil {
		return err
	}

	tasks := shard.Partition(p.Axis, p.Shards)
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
		if err := seg.Bind(p.Benchmarks); err != nil {
			return err
		}
		for _, procs := range t.Procs {
			for _, b := range p.Benchmarks {
				key := suite.CellKey(p.Spec.Name, procs, p.Placement.String(), b)
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

	rep, err := shard.Run(shard.Spec{
		Tasks: tasks,
		Start: func(t shard.Task) (*exec.Cmd, error) {
			return p.Start(t, segments[t.Shard])
		},
		HeartbeatTimeout: p.HeartbeatTimeout,
		MaxRetries:       p.MaxRetries,
		Log:              p.Log,
		Logger:           p.Logger,
		Monitor:          p.Monitor,
	})
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
	missing, err := suite.MergeShardJournals(journal, segs, p.Spec.Name, p.Placement.String(), p.Axis, p.Benchmarks)
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
		for _, b := range p.Benchmarks {
			key := suite.CellKey(p.Spec.Name, procs, p.Placement.String(), b)
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
