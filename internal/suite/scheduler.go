package suite

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/series"
	"repro/internal/units"
)

// cellScratch is the reusable state a suite run draws its buffers from.
// Each sweep worker owns one, so buffers survive from one cell to the
// next on the same worker and steady-state cells stop paying
// construction costs. A worker takes its scratch from the spare list
// and returns it when it exits, so the buffers also survive from one
// campaign to the next; Run borrows one the same way. A scratch is used
// by one worker at a time, and reusing one never changes results — it
// only recycles storage the runner has already drained.
type cellScratch struct {
	meter *power.Meter
	// repairer repairs faulty meter traces into reused buffers; the
	// runner folds each repaired trace into scalars before the next
	// repair, as it does with the meter's traces.
	repairer series.Repairer
	// steps caches the assembled benchmark steps; stepNames records the
	// list they were built from, so a plan whose Configure varies the
	// benchmark list per cell still rebuilds.
	steps     []benchStep
	stepNames []string
	// model caches the default power model, reusable while the
	// (fault-adjusted) spec pointer is unchanged.
	model *power.Model
	// dist is the process-distribution buffer recycled across cells; the
	// runner folds it into scalars before the next cell reuses it.
	dist []int
	// work is where the workload models build their distributions, load
	// profiles and discrete-event stacks. A profile built in it lives
	// for one attempt: the runner meters it (stretching it first for a
	// straggler) before the next benchmark's model overwrites it.
	work bench.Scratch
	// attemptNames and runNames keep the traced span names the runner
	// has built, by attempt number and by process count.
	attemptNames []string
	runNames     map[int]string
}

// spares holds the scratch of workers that have exited, for the workers
// of later campaigns. It keeps at most GOMAXPROCS entries, one per
// worker that can run at once. (A sync.Pool would do, but the garbage
// collector empties it, which would make the allocations a campaign
// measures depend on GC timing.)
var spares struct {
	sync.Mutex
	list []*cellScratch
}

// takeScratch returns a spare scratch, or a fresh one when none is left.
func takeScratch() *cellScratch {
	spares.Lock()
	defer spares.Unlock()
	n := len(spares.list)
	if n == 0 {
		return new(cellScratch)
	}
	sc := spares.list[n-1]
	spares.list[n-1] = nil
	spares.list = spares.list[:n-1]
	return sc
}

// returnScratch hands sc back for a later worker, or drops it when the
// list is full. The meter's recorder is detached first, so a spare
// keeps no campaign's tracer alive.
func returnScratch(sc *cellScratch) {
	if sc.meter != nil {
		sc.meter.Instrument(nil)
	}
	spares.Lock()
	defer spares.Unlock()
	if len(spares.list) < runtime.GOMAXPROCS(0) {
		spares.list = append(spares.list, sc)
	}
}

// LiveSink is the scheduler's view of a wall-clock telemetry plane.
// The suite package is on the deterministic side of the two-plane
// architecture, so it must not import internal/obs/live (greenvet's
// layering analyzer enforces this); instead the live plane's Hub
// satisfies this interface structurally and callers on the wall-clock
// side (cmd/greenbench, examples) plug it in. BeginCell returns a plain
// func — an unnamed type — precisely so that satisfaction needs no
// shared named types between the two planes.
//
// A sink must be inert with respect to the virtual plane: Tap forwards
// every record to inner verbatim, and nothing a sink does may change
// results, trace or metrics by a byte.
type LiveSink interface {
	// SweepStarted announces a sweep of total cells on workers goroutines.
	SweepStarted(total, workers int)
	// SweepFinished marks the sweep complete.
	SweepFinished()
	// Tap wraps a cell's recorder so the record stream is mirrored onto
	// the live plane; it must forward to inner unchanged.
	Tap(inner obs.Recorder, procs int) obs.Recorder
	// BeginCell announces a cell entering execution and returns the
	// function called exactly once with its outcome: a non-nil err for a
	// failed cell, otherwise the retry total and degraded flag.
	BeginCell(procs int) func(err error, retries int, degraded bool)
}

// SweepPlan describes a process-count sweep: which cells to run, how to
// configure each, how many to run at once, where the campaign's
// observability stream goes and which journal checkpoints it.
//
// Every cell of a sweep is independent by construction — fault draws are
// pure functions of (plan seed, benchmark, procs, attempt) and meter
// noise is seeded per process count — so cells may run in any order or
// concurrently without results changing. The scheduler exploits that:
// cells run on a pool of workers, each recording its cells in
// cell-relative virtual time, and the per-cell traces are merged into
// the campaign tracer in axis order. One worker is the same pool with
// one worker, so results, trace and metrics are byte-identical whatever
// the worker count.
type SweepPlan struct {
	// Axis is the ordered process-count axis; results come back in this
	// order regardless of execution order.
	Axis []int
	// Workers caps concurrently-running cells; values below 2 run the
	// pool with one worker.
	Workers int
	// Trace, when non-nil, receives the campaign's spans, events and
	// metrics, the cells laid out end to end on the virtual-time axis in
	// axis order.
	Trace *obs.Tracer
	// Live, when non-nil, receives wall-clock telemetry: cell lifecycle
	// events plus a mirror of each cell's record stream (via Tap).
	// The live plane is strictly read-only over the virtual plane —
	// attaching a sink cannot change results, trace or metrics by a byte.
	Live LiveSink
	// Journal, when non-nil, checkpoints every freshly-run benchmark with
	// its cell trace (when traced), and serves every benchmark it already
	// holds instead of running it, replaying the journaled trace. Which
	// records a resume may reuse is settled where the journal is opened.
	Journal *Journal
	// AfterCheckpoint, when non-nil, runs after each benchmark the sweep
	// journals, with the benchmark's cell key and the running count of
	// checkpoints; a non-nil error aborts the sweep. It must be safe for
	// concurrent calls when Workers > 1.
	AfterCheckpoint func(key string, done int64) error
	// Configure builds the Config for the cell of procs processes. It
	// must be safe for concurrent calls when Workers > 1. The scheduler
	// owns the returned config's Trace when the plan is traced.
	Configure func(procs int) (Config, error)
}

// RunSweepPlan executes the plan and returns one Result per axis entry,
// in axis order. Workers claim contiguous axis-order chunks off an
// atomic cursor and run each chunk's cells back to back against
// worker-local state: one tracer collecting every cell the worker runs
// (delimited by per-cell marks) and one cellScratch, taken from the
// spare list, recycling measurement buffers. Chunking amortizes tracer
// construction across a batch and keeps adjacent cells' merges reading
// from the same arenas.
//
// On error the first failing cell in axis order is reported. Cells after
// it are skipped once the failure is seen; with several workers some may
// already have run by then, and their results are discarded.
func RunSweepPlan(plan SweepPlan) ([]*Result, error) {
	if plan.Configure == nil {
		return nil, errors.New("suite: sweep plan has no Configure")
	}
	n := len(plan.Axis)
	workers := 1
	if plan.Workers > 1 && n > 1 {
		workers = plan.Workers
	}
	if plan.Live != nil {
		plan.Live.SweepStarted(n, workers)
		defer plan.Live.SweepFinished()
	}
	workers = min(workers, max(n, 1))
	// Several chunks per worker so a slow chunk doesn't serialise the
	// tail, while chunks stay large enough to amortize claim overhead.
	chunk := max(n/(workers*4), 1)
	type cellState struct {
		res      *Result
		rec      *obs.Tracer
		from, to obs.Mark
		err      error
	}
	cells := make([]cellState, n)
	var (
		next        atomic.Int64 // next unclaimed axis index
		failedAt    atomic.Int64 // lowest failing axis index so far
		checkpoints atomic.Int64 // benchmarks journaled so far
		wg          sync.WaitGroup
	)
	failedAt.Store(int64(n))
	fail := func(i int) {
		for {
			cur := failedAt.Load()
			if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *obs.Tracer
			if plan.Trace != nil {
				rec = obs.NewTracer()
			}
			scratch := takeScratch()
			defer returnScratch(scratch)
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				for i := start; i < min(start+chunk, n); i++ {
					// Cells after a failure are doomed to be discarded —
					// skip them. Cells before it still run, so the error
					// contract (first failing cell in axis order) holds.
					if int64(i) > failedAt.Load() {
						continue
					}
					c := &cells[i]
					c.rec, c.from = rec, rec.Mark()
					if c.res, c.err = plan.runCell(plan.Axis[i], rec, scratch, &checkpoints); c.err != nil {
						fail(i)
						continue
					}
					c.to = rec.Mark()
				}
			}
		}()
	}
	wg.Wait()
	for i := range cells {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
	}
	// Merge in axis order: stream each cell's zero-based mark range end
	// to end onto the campaign clock.
	out := make([]*Result, n)
	var cursor units.Seconds
	for i := range cells {
		cells[i].rec.MergeRangeInto(plan.Trace, cells[i].from, cells[i].to, cursor)
		cells[i].res.TraceEnd += cursor
		cursor = cells[i].res.TraceEnd
		out[i] = cells[i].res
	}
	return out, nil
}

// runCell configures and runs the cell of procs processes on a worker
// whose tracer is rec (nil when the plan is untraced), under the plan's
// journal and live sink.
func (plan *SweepPlan) runCell(procs int, rec *obs.Tracer, scratch *cellScratch, checkpoints *atomic.Int64) (*Result, error) {
	cfg, err := plan.Configure(procs)
	if err != nil {
		return nil, fmt.Errorf("suite: p=%d: %w", procs, err)
	}
	if rec != nil {
		cfg.Trace = rec
	}
	if plan.Journal != nil {
		plan.journalCell(&cfg, procs, rec, checkpoints)
	}
	var done func(err error, retries int, degraded bool)
	if plan.Live != nil {
		cfg.Trace = plan.Live.Tap(cfg.Trace, procs)
		done = plan.Live.BeginCell(procs)
	}
	r, err := runSuite(cfg, scratch)
	if err != nil {
		if done != nil {
			done(err, 0, false)
		}
		return nil, fmt.Errorf("suite: p=%d: %w", procs, err)
	}
	if done != nil {
		done(nil, resultRetries(r), r.Degraded)
	}
	return r, nil
}

// journalCell wires cfg to the plan's journal. A journaled benchmark is
// served from the journal: its trace is replayed into rec and the cell
// clock restored to where the original run stopped. A fresh benchmark is
// checkpointed with the records rec gained since the previous benchmark
// of the cell. Untraced clocks reach no artefact, so without a trace the
// clock advances by the run's accounted time.
func (plan *SweepPlan) journalCell(cfg *Config, procs int, rec *obs.Tracer, checkpoints *atomic.Int64) {
	j, spec, placement := plan.Journal, cfg.Spec, cfg.Placement
	key := func(bench string) string {
		return CellKey(spec.Name, procs, placement.String(), bench)
	}
	mark := rec.Mark()
	cfg.lookup = func(bench string, clock units.Seconds) (BenchmarkRun, units.Seconds, bool) {
		run, ok := j.Lookup(key(bench))
		if !ok {
			return run, clock, false
		}
		end := clock + run.Measurement.Time + run.WastedTime
		if tr, traced := j.LookupTrace(key(bench)); traced && rec != nil {
			rec.Replay(tr.Spans, tr.Events, tr.Ops)
			mark = rec.Mark()
			end = tr.End
		}
		return run, end, true
	}
	cfg.checkpoint = func(bench string, run BenchmarkRun, end units.Seconds) error {
		k := key(bench)
		if rec != nil {
			spans, events, ops := rec.Since(mark)
			mark = rec.Mark()
			j.SetTrace(k, CellTrace{Spans: spans, Events: events, Ops: ops, End: end})
		}
		if err := j.Record(k, run); err != nil {
			return err
		}
		done := checkpoints.Add(1)
		if plan.AfterCheckpoint != nil {
			return plan.AfterCheckpoint(k, done)
		}
		return nil
	}
}

// resultRetries totals the re-run attempts across a result's benchmarks.
func resultRetries(r *Result) int {
	n := 0
	for _, b := range r.Runs {
		n += b.Retries
	}
	return n
}

// SweepParallel is Sweep on a worker pool: the same cells, seeds and
// results, executed up to workers at a time.
func SweepParallel(spec *cluster.Spec, procs []int, workers int) ([]*Result, error) {
	return RunSweepPlan(SweepPlan{
		Axis:    procs,
		Workers: workers,
		Configure: func(p int) (Config, error) {
			return SeededConfig(spec, p, 17), nil
		},
	})
}
