package suite

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

// CampaignSpec describes one journal-backed campaign run — the
// job-scoped entry point shared by the greenbench CLI and the campaign
// server (internal/campaign). Both front ends build a CampaignSpec and
// call RunCampaign, so a sweep submitted over HTTP executes the exact
// code path of the same sweep run from the command line and produces
// byte-identical artefacts.
//
// The spec stays on the deterministic side of the two-plane
// architecture: everything wall-clock (pacing, cancellation, shard
// supervision, status lines) is injected through the hook fields, which
// the deterministic core invokes but never implements. All hooks are
// optional; the zero hook set runs the campaign silently to completion.
type CampaignSpec struct {
	// Spec is the cluster under test (required).
	Spec *cluster.Spec
	// Placement is the process placement policy.
	Placement cluster.Placement
	// Benchmarks is the ordered benchmark list (empty: the paper's three).
	Benchmarks []string
	// Faults injects the campaign's fault scenario (nil: none).
	Faults *faults.Plan
	// Retry governs per-benchmark retries, backoff and timeouts.
	Retry RetryPolicy

	// Sweep selects the process-count sweep; false runs one point.
	Sweep bool
	// Procs is the single-run process count (0: all cores). Ignored for
	// sweeps.
	Procs int
	// Axis overrides the sweep's process axis (nil: DefaultAxis(Spec)).
	Axis []int
	// Workers caps concurrently-running sweep cells (0 or 1: one worker).
	Workers int

	// JournalPath checkpoints completed sweep cells ("" for none; only
	// sweeps journal). Without Resume a stale file there is removed
	// first, so a fresh campaign never inherits an abandoned one's cells.
	JournalPath string
	// Resume skips cells already checkpointed in the journal; cells a
	// sharded sweep quarantined are dropped and re-run.
	Resume bool

	// Trace, when non-nil, records the campaign's deterministic
	// observability stream (spans, events, metrics).
	Trace *obs.Tracer
	// Live, when non-nil, receives wall-clock telemetry (see LiveSink).
	Live LiveSink

	// PauseCell, when non-nil, runs before each cell — wall-clock pacing
	// for demos and e2e tests; it cannot affect virtual results.
	PauseCell func()
	// Check, when non-nil, runs before each cell; a non-nil error aborts
	// the campaign. This is the cancellation hook of the campaign server.
	// It must be safe for concurrent calls when Workers > 1.
	Check func() error
	// AfterCell, when non-nil, runs after each freshly-executed
	// (non-journal-hit) cell with the running count of such cells; a
	// non-nil error aborts the campaign. Tests use it to simulate a
	// killed process mid-sweep.
	AfterCell func(done int64) error
	// Supervise, when non-nil, runs the sweep axis out of process before
	// the in-process pass — the sharded supervisor hook. On success the
	// campaign renders entirely from the journal the supervisor filled,
	// quarantined cells included.
	Supervise func(axis []int) error
	// Logf, when non-nil, receives human-readable status lines (resume
	// notices). Artefact bytes never pass through it.
	Logf func(format string, args ...any)

	// Render, when non-nil, writes the campaign's user-facing output. It
	// runs after the results exist and before the journal is removed, so
	// an interrupted render leaves the journal behind for a resume.
	Render func(results []*Result) error
}

// CampaignOutcome is what RunCampaign reports beyond the results slice.
type CampaignOutcome struct {
	// Results holds one entry per axis point (or the single run).
	Results []*Result
	// Quarantined counts benchmark cells lost to a poison shard.
	Quarantined int
	// JournalKept names the journal left behind for a later resume
	// (quarantined cells pending); "" when the journal was removed or
	// never existed.
	JournalKept string
}

// DefaultAxis returns the campaign's process axis for a cluster: the
// paper's canonical Fire axis when the machine has its 128 cores,
// otherwise the same eight-step shape scaled to the machine's size.
func DefaultAxis(spec *cluster.Spec) []int {
	if spec.TotalCores() == 128 {
		return FireSweep()
	}
	axis := make([]int, 0, 8)
	for i := 1; i <= 8; i++ {
		axis = append(axis, spec.TotalCores()*i/8)
	}
	return axis
}

// CountQuarantined totals the quarantined benchmark cells across results.
func CountQuarantined(results []*Result) int {
	n := 0
	for _, r := range results {
		for _, b := range r.Runs {
			if b.Status == StatusQuarantined {
				n++
			}
		}
	}
	return n
}

func (cs *CampaignSpec) logf(format string, args ...any) {
	if cs.Logf != nil {
		cs.Logf(format, args...)
	}
}

// configure builds the Config for one process count — the campaign's
// SweepPlan.Configure. The cancellation check and the wall-clock pause
// run first; neither can touch the virtual results.
func (cs *CampaignSpec) configure(procs int) (Config, error) {
	if cs.Check != nil {
		if err := cs.Check(); err != nil {
			return Config{}, err
		}
	}
	if cs.PauseCell != nil {
		cs.PauseCell()
	}
	cfg := DefaultConfig(cs.Spec, procs)
	cfg.Placement = cs.Placement
	cfg.Benchmarks = cs.Benchmarks
	cfg.Faults = cs.Faults
	cfg.Retry = cs.Retry
	return cfg, nil
}

// RunCampaign executes the campaign described by cs: a single suite run
// (a one-cell sweep) or a journal-backed (optionally sharded, optionally
// resumed) sweep. Render runs once the results exist; the journal is
// then removed unless quarantined cells remain, in which case it is kept
// as the handle for retrying them and the outcome names it.
func RunCampaign(cs CampaignSpec) (*CampaignOutcome, error) {
	if cs.Spec == nil {
		return nil, fmt.Errorf("suite: campaign has no cluster spec")
	}
	plan, err := cs.plan()
	if err != nil {
		return nil, err
	}
	results, err := RunSweepPlan(plan)
	if err != nil {
		return nil, err
	}
	if cs.Render != nil {
		if err := cs.Render(results); err != nil {
			return nil, err
		}
	}
	out := &CampaignOutcome{Results: results, Quarantined: CountQuarantined(results)}
	// The campaign completed and its output (if any) is safely rendered:
	// the journal has served its purpose — unless cells were quarantined,
	// in which case it is the handle for retrying them.
	if journal := plan.Journal; journal != nil {
		if out.Quarantined > 0 {
			out.JournalKept = journal.Path()
			return out, nil
		}
		if err := journal.Remove(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plan builds the campaign's sweep plan: one cell at Procs for a single
// run, else the sweep axis with its journal. A sharded sweep first runs
// the axis as supervised worker processes (Supervise), merging their
// journal segments — and quarantine records for cells lost to a poison
// shard — into the canonical journal; the plan then renders the
// campaign entirely from that journal, every cell a journal hit, so
// sharded output is byte-identical to an in-process run by construction.
func (cs *CampaignSpec) plan() (SweepPlan, error) {
	plan := SweepPlan{
		Workers:   cs.Workers,
		Trace:     cs.Trace,
		Live:      cs.Live,
		Configure: cs.configure,
	}
	if !cs.Sweep {
		procs := cs.Procs
		if procs == 0 {
			procs = cs.Spec.TotalCores()
		}
		plan.Axis = []int{procs}
		return plan, nil
	}
	plan.Axis = cs.Axis
	if plan.Axis == nil {
		plan.Axis = DefaultAxis(cs.Spec)
	}
	if cs.JournalPath != "" && !cs.Resume {
		if err := os.Remove(cs.JournalPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return plan, err
		}
	}
	if cs.Supervise != nil {
		if err := cs.Supervise(plan.Axis); err != nil {
			return plan, err
		}
	}
	if cs.JournalPath == "" {
		return plan, nil
	}
	// Checkpoint completed (procs, benchmark) cells so an interrupted
	// sweep can resume instead of re-simulating finished work.
	journal, err := OpenJournal(cs.JournalPath)
	if err != nil {
		return plan, err
	}
	if err := journal.Bind(cs.Benchmarks); err != nil {
		return plan, err
	}
	// A quarantined cell is an artefact of a lost shard worker, not a
	// simulation outcome: a user-driven resume re-runs it. The sharded
	// supervisor's own render pass keeps it.
	if cs.Resume && cs.Supervise == nil {
		journal.DropQuarantined()
	}
	if journal.Len() > 0 {
		cs.logf("resuming: %d cell(s) already in %s", journal.Len(), journal.Path())
	}
	plan.Journal = journal
	if cs.AfterCell != nil {
		plan.AfterCheckpoint = func(_ string, done int64) error { return cs.AfterCell(done) }
	}
	return plan, nil
}
