package suite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

func marshalResults(t *testing.T, rs []*Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fireFaultyPlan is a fixed-seed fault scenario on the Fire axis: a
// scheduled crash forcing a retry, a certain straggler and meter faults.
func fireFaultyPlan() *faults.Plan {
	return &faults.Plan{
		Seed:      11,
		Crashes:   []faults.Crash{{Benchmark: BenchHPL, Node: 1, At: 50, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.9},
		Meter:     &faults.Meter{DropRate: 0.08, GlitchRate: 0.02, GlitchWatts: 400},
	}
}

// TestParallelFireSweepByteIdentical is the scheduler's golden test: the
// paper's Fire sweep under -workers N must serialise byte-for-byte like
// one worker — with and without an active fault plan.
func TestParallelFireSweepByteIdentical(t *testing.T) {
	spec := cluster.Fire()
	cases := []struct {
		name string
		plan *faults.Plan
	}{
		{"clean", nil},
		{"faulty", fireFaultyPlan()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			configure := func(procs int) (Config, error) {
				cfg := SeededConfig(spec, procs, 17)
				if tc.plan != nil {
					cfg.Faults = tc.plan
					cfg.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 30}
				}
				return cfg, nil
			}
			seq, err := RunSweepPlan(SweepPlan{Axis: FireSweep(), Configure: configure})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 9} {
				par, err := RunSweepPlan(SweepPlan{
					Axis: FireSweep(), Workers: workers, Configure: configure,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshalResults(t, seq), marshalResults(t, par)) {
					t.Errorf("workers=%d sweep output differs from sequential", workers)
				}
			}
		})
	}
}

// readmeFaultPlan is the README's fault scenario with seed 4 plus a
// scheduled crash on STREAM's first attempt, so every cell retries.
func readmeFaultPlan() *faults.Plan {
	return &faults.Plan{
		Seed:      4,
		CrashProb: 0.2,
		Crashes:   []faults.Crash{{Benchmark: BenchSTREAM, Node: 1, At: 1}},
		Straggler: &faults.Straggler{Prob: 0.1, ClockFactor: 0.5},
		Meter:     &faults.Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 60},
	}
}

// TestParallelSweepTraceByteIdentical: the merged campaign trace and
// metrics of a parallel sweep must reproduce the one-worker recording
// byte-for-byte — spans laid end to end on the virtual-time axis and
// metric accumulation replayed in axis order.
func TestParallelSweepTraceByteIdentical(t *testing.T) {
	cases := []struct {
		name      string
		axis      []int
		configure func(procs int) (Config, error)
		workers   int
	}{
		{"faulty", []int{2, 4, 8}, func(procs int) (Config, error) {
			return faultyConfig(procs), nil
		}, 3},
		// The zero (block) placement, as a CampaignSpec that sets none runs.
		{"readme-plan", DefaultAxis(cluster.Testbed()), func(procs int) (Config, error) {
			cfg := DefaultConfig(cluster.Testbed(), procs)
			cfg.Placement = cluster.Block
			cfg.Faults = readmeFaultPlan()
			cfg.Retry = RetryPolicy{MaxAttempts: 4, Backoff: 30}
			return cfg, nil
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep := func(workers int) (*obs.Tracer, []*Result) {
				tracer := obs.NewTracer()
				rs, err := RunSweepPlan(SweepPlan{
					Axis:      tc.axis,
					Workers:   workers,
					Trace:     tracer,
					Configure: tc.configure,
				})
				if err != nil {
					t.Fatal(err)
				}
				return tracer, rs
			}
			chrome := func(tr *obs.Tracer) []byte {
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := obs.WriteChromeTraceFile(path, tr.Spans(), tr.Events()); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			metrics := func(tr *obs.Tracer) []byte {
				var buf bytes.Buffer
				if err := tr.Registry().Snapshot().WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			seqTracer, seqResults := sweep(1)
			parTracer, parResults := sweep(tc.workers)
			if !bytes.Equal(marshalResults(t, seqResults), marshalResults(t, parResults)) {
				t.Error("traced parallel sweep results differ from sequential")
			}
			if !bytes.Equal(chrome(seqTracer), chrome(parTracer)) {
				t.Error("parallel campaign trace differs from sequential recording")
			}
			if !bytes.Equal(metrics(seqTracer), metrics(parTracer)) {
				t.Errorf("parallel campaign metrics differ from sequential:\n%s\n%s",
					metrics(seqTracer), metrics(parTracer))
			}
			// TraceEnd bookkeeping must tile the campaign axis identically too.
			for i := range seqResults {
				if s, p := seqResults[i].TraceEnd, parResults[i].TraceEnd; s != p {
					t.Errorf("p=%d: TraceEnd %v (sequential) != %v (parallel)",
						seqResults[i].Procs, s, p)
				}
			}
		})
	}
}

// TestParallelSweepSharedJournal exercises the worker pool against one
// shared journal — the greenbench checkpointing path — and is the
// scheduler's data-race canary under `go test -race`.
func TestParallelSweepSharedJournal(t *testing.T) {
	spec := cluster.Testbed()
	axis := []int{2, 3, 4, 5, 6, 8}
	journal, err := OpenJournal(filepath.Join(t.TempDir(), "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Bind(PaperOrder()); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	rs, err := RunSweepPlan(SweepPlan{
		Axis:    axis,
		Workers: 8,
		Trace:   tracer,
		Journal: journal,
		Configure: func(procs int) (Config, error) {
			return SeededConfig(spec, procs, 17), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(axis) {
		t.Fatalf("got %d results, want %d", len(rs), len(axis))
	}
	if want := len(axis) * 3; journal.Len() != want {
		t.Errorf("journal holds %d cells, want %d", journal.Len(), want)
	}
	// Every cell trace landed, relative to its own cell origin.
	for _, p := range axis {
		for _, b := range PaperOrder() {
			tr, ok := journal.LookupTrace(CellKey(spec.Name, p, "cyclic", b))
			if !ok {
				t.Errorf("no journaled trace for p=%d %s", p, b)
				continue
			}
			if len(tr.Spans) == 0 {
				t.Errorf("empty journaled trace for p=%d %s", p, b)
			}
		}
	}
}

// TestSweepPlanErrors: a failing cell reports the first axis position
// that failed, wrapped with its process count, and Configure is required.
// TestHeterogeneousCellsShareOneScratch runs cells that differ in every
// key the worker's scratch caches on — spec (the power model), benchmark
// list (the steps), placement (the process distribution) and meter
// faults (the meter's configuration and the repairer) — back to back on
// one worker, and requires each cell to serialise exactly like the same
// Config run on a fresh scratch.
func TestHeterogeneousCellsShareOneScratch(t *testing.T) {
	testbed := cluster.Testbed()
	configure := func(procs int) (Config, error) {
		switch procs {
		case 4:
			return DefaultConfig(testbed, 4), nil
		case 32:
			cfg := DefaultConfig(cluster.Fire(), 32)
			cfg.Benchmarks = ExtendedOrder
			cfg.Placement = cluster.Block
			cfg.Faults = &faults.Plan{Seed: 3, Meter: &faults.Meter{DropRate: 0.08, GlitchRate: 0.02, GlitchWatts: 400}}
			return cfg, nil
		case 8:
			cfg := DefaultConfig(testbed, 8)
			cfg.Benchmarks = []string{"HPL", "beff"}
			return cfg, nil
		}
		return Config{}, fmt.Errorf("no cell at p=%d", procs)
	}
	axis := []int{4, 32, 8}
	rs, err := RunSweepPlan(SweepPlan{Axis: axis, Configure: configure})
	if err != nil {
		t.Fatal(err)
	}
	for i, procs := range axis {
		cfg, _ := configure(procs)
		alone, err := runSuite(cfg, new(cellScratch))
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Runs[0].GapsFilled+rs[i].Runs[0].OutliersRejected == 0 && cfg.Faults != nil {
			t.Errorf("p=%d: meter-faulty cell repaired nothing", procs)
		}
		got, want := marshalResults(t, rs[i:i+1]), marshalResults(t, []*Result{alone})
		if !bytes.Equal(got, want) {
			t.Errorf("p=%d: cell on a shared scratch differs from a fresh scratch's:\n%s\nwant\n%s", procs, got, want)
		}
	}
}

// TestConcurrentRunsBorrowSpares calls Run from several goroutines at
// once over cells that differ in system, benchmark list, placement and
// fault plan, so each borrowed scratch moves between machines and
// suites. Every result must serialise like the same Config run on a
// fresh scratch; under -race it also checks the spare list's hand-over
// between concurrent Runs.
func TestConcurrentRunsBorrowSpares(t *testing.T) {
	faulty := DefaultConfig(cluster.Fire(), 9)
	faulty.Benchmarks = []string{BenchHPL, "beff", BenchIOzone}
	faulty.Placement = cluster.Block
	faulty.Faults = fireFaultyPlan()
	faulty.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 30}
	extendedG := DefaultConfig(cluster.SystemG(), 700)
	extendedG.Benchmarks = ExtendedOrder
	extendedFire := SeededConfig(cluster.Fire(), 128, 5)
	extendedFire.Benchmarks = ExtendedOrder
	configs := []Config{extendedG, faulty, DefaultConfig(cluster.Testbed(), 4), extendedFire}
	want := make([][]byte, len(configs))
	for i, cfg := range configs {
		r, err := runSuite(cfg, new(cellScratch))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshalResults(t, []*Result{r})
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range configs {
				i := (g + k) % len(configs)
				r, err := Run(configs[i])
				if err != nil {
					errs <- err
					return
				}
				got, err := json.MarshalIndent([]*Result{r}, "", "  ")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d: config %d on a borrowed scratch differs from a fresh scratch's", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSweepPlanErrors(t *testing.T) {
	if _, err := RunSweepPlan(SweepPlan{Axis: []int{2}}); err == nil {
		t.Error("plan without Configure accepted")
	}
	spec := cluster.Testbed()
	for _, workers := range []int{1, 4} {
		_, err := RunSweepPlan(SweepPlan{
			Axis:    []int{2, 4, 6},
			Workers: workers,
			Configure: func(procs int) (Config, error) {
				cfg := SeededConfig(spec, procs, 17)
				if procs >= 4 {
					cfg.Procs = -1 // invalid: fails Validate inside Run
				}
				return cfg, nil
			},
		})
		if err == nil {
			t.Fatalf("workers=%d: invalid cell accepted", workers)
		}
		if !strings.Contains(err.Error(), "p=4") {
			t.Errorf("workers=%d: error does not name the first failing cell: %v", workers, err)
		}
	}
}

// TestSweepSeededViaPlanUnchanged pins the refactored SweepSeeded to its
// historical output: routing the classic entry points through the
// scheduler must not change a single byte.
func TestSweepSeededViaPlanUnchanged(t *testing.T) {
	spec := cluster.Testbed()
	procs := []int{2, 4, 8}
	direct := make([]*Result, 0, len(procs))
	for _, p := range procs {
		r, err := Run(SeededConfig(spec, p, 17))
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, r)
	}
	viaPlan, err := SweepSeeded(spec, procs, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalResults(t, direct), marshalResults(t, viaPlan)) {
		t.Error("SweepSeeded output changed after scheduler refactor")
	}
	viaParallel, err := SweepParallel(spec, procs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalResults(t, direct), marshalResults(t, viaParallel)) {
		t.Error("SweepParallel output differs from direct runs")
	}
}

// TestSweepWorkerEdgeCases pins the scheduler's degenerate worker
// counts: an explicit one worker and more workers than cells (which must
// clamp) both serialise results, trace and metrics byte-identically to
// the zero-value Workers.
func TestSweepWorkerEdgeCases(t *testing.T) {
	axis := []int{2, 4, 8}
	sweep := func(workers int) ([]byte, []byte, []byte) {
		tracer := obs.NewTracer()
		rs, err := RunSweepPlan(SweepPlan{
			Axis:    axis,
			Workers: workers,
			Trace:   tracer,
			Configure: func(procs int) (Config, error) {
				return faultyConfig(procs), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var metrics bytes.Buffer
		if err := tracer.Registry().Snapshot().WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := obs.WriteChromeTraceFile(path, tracer.Spans(), tracer.Events()); err != nil {
			t.Fatal(err)
		}
		chrome, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return marshalResults(t, rs), chrome, metrics.Bytes()
	}
	baseRes, baseSpans, baseMetrics := sweep(0) // zero value: one worker
	for _, workers := range []int{1, len(axis) + 5} {
		res, spans, metrics := sweep(workers)
		if !bytes.Equal(res, baseRes) {
			t.Errorf("workers=%d: results differ from sequential", workers)
		}
		if !bytes.Equal(spans, baseSpans) {
			t.Errorf("workers=%d: trace differs from sequential", workers)
		}
		if !bytes.Equal(metrics, baseMetrics) {
			t.Errorf("workers=%d: metrics differ from sequential", workers)
		}
	}
}

// TestSweepParallelErrorNoLeak: a sweep with failing cells must report
// the first failure in axis order, terminate every worker goroutine,
// and never deadlock the merge — with a live campaign tracer attached,
// so the failure path is also a -race canary.
func TestSweepParallelErrorNoLeak(t *testing.T) {
	spec := cluster.Testbed()
	before := runtime.NumGoroutine()
	_, err := RunSweepPlan(SweepPlan{
		Axis:    []int{2, 3, 4, 5, 6, 8},
		Workers: 4,
		Trace:   obs.NewTracer(),
		Configure: func(procs int) (Config, error) {
			cfg := SeededConfig(spec, procs, 17)
			if procs >= 4 {
				cfg.Procs = -1 // invalid: fails Validate inside Run
			}
			return cfg, nil
		},
	})
	if err == nil {
		t.Fatal("sweep with failing cells returned no error")
	}
	if !strings.Contains(err.Error(), "p=4") {
		t.Errorf("error does not name the first failing cell in axis order: %v", err)
	}
	// The worker goroutines hold no channels open and exit once the axis
	// cursor runs out; give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("worker goroutines leaked: %d running, %d before the sweep", g, before)
	}
}

// BenchmarkSweepAxisOneWorker runs the paper's full Fire campaign on
// the one-worker pool — the baseline the parallel scheduler is compared
// against.
func BenchmarkSweepAxisOneWorker(b *testing.B) {
	benchmarkSweepAxis(b, FireSweep(), 1)
}

// BenchmarkSweepAxisParallel is the same campaign on four workers.
func BenchmarkSweepAxisParallel(b *testing.B) {
	benchmarkSweepAxis(b, FireSweep(), 4)
}

// BenchmarkSweepMatrix spans the cells×workers plane: the paper's
// 9-cell axis and a production-sized 32-cell axis, each at 1/2/4/8
// workers. The per-op numbers feed the scheduler-performance table in
// EXPERIMENTS.md; allocs/op divided by the cell count is the per-cell
// allocation budget the hot-path refactor is held to.
func BenchmarkSweepMatrix(b *testing.B) {
	spec := cluster.Fire()
	axes := []struct {
		name string
		axis []int
	}{
		{"cells=9", FireSweep()},
		{"cells=32", denseFireAxis(spec)},
	}
	for _, ax := range axes {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", ax.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SweepParallel(spec, ax.axis, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// denseFireAxis is the production-sized sweep: every multiple of four
// processes up to the Fire cluster's full core count (32 cells).
func denseFireAxis(spec *cluster.Spec) []int {
	axis := make([]int, 0, spec.TotalCores()/4)
	for p := 4; p <= spec.TotalCores(); p += 4 {
		axis = append(axis, p)
	}
	return axis
}

func benchmarkSweepAxis(b *testing.B, axis []int, workers int) {
	spec := cluster.Fire()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepParallel(spec, axis, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchReuseAcrossCampaigns runs three campaigns back to back on
// the scratch that sweep workers leave on the spare list: a faulted Fire
// sweep, a clean extended-suite SystemG sweep, and the faulted Fire sweep
// again. Each campaign's results, Chrome trace and metrics must match the
// same campaign run on an empty spare list, so no meter draw, sample
// buffer, repair buffer or cached step of one campaign leaks into the
// next. Under -race it also checks the spare list's hand-over.
func TestScratchReuseAcrossCampaigns(t *testing.T) {
	fireSpec, systemG := cluster.Fire(), cluster.SystemG()
	fire := func(procs int) (Config, error) {
		cfg := SeededConfig(fireSpec, procs, 17)
		cfg.Faults = fireFaultyPlan()
		cfg.Retry = RetryPolicy{MaxAttempts: 3, Backoff: 30}
		return cfg, nil
	}
	extended := func(procs int) (Config, error) {
		cfg := SeededConfig(systemG, procs, 5)
		cfg.Benchmarks = ExtendedOrder
		return cfg, nil
	}
	type artefacts struct{ results, trace, metrics []byte }
	// run may be called off the test goroutine, so it reports errors
	// instead of failing the test itself.
	run := func(axis []int, configure func(int) (Config, error)) (artefacts, error) {
		tracer := obs.NewTracer()
		rs, err := RunSweepPlan(SweepPlan{Axis: axis, Workers: 2, Trace: tracer, Configure: configure})
		if err != nil {
			return artefacts{}, err
		}
		results, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return artefacts{}, err
		}
		var trace, metrics bytes.Buffer
		if err := obs.WriteChromeTrace(&trace, tracer.Spans(), tracer.Events()); err != nil {
			return artefacts{}, err
		}
		if err := tracer.Registry().Snapshot().WriteJSON(&metrics); err != nil {
			return artefacts{}, err
		}
		return artefacts{results, trace.Bytes(), metrics.Bytes()}, nil
	}
	compare := func(name string, got, want artefacts) {
		if !bytes.Equal(got.results, want.results) {
			t.Errorf("%s: results differ from a run on fresh scratch", name)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: Chrome trace differs from a run on fresh scratch", name)
		}
		if !bytes.Equal(got.metrics, want.metrics) {
			t.Errorf("%s: metrics differ from a run on fresh scratch", name)
		}
	}
	dropSpares := func() {
		spares.Lock()
		spares.list = nil
		spares.Unlock()
	}
	gAxis := []int{16, 200, 512, 1024}
	dropSpares()
	wantFire, err := run(FireSweep(), fire)
	if err != nil {
		t.Fatal(err)
	}
	dropSpares()
	wantG, err := run(gAxis, extended)
	if err != nil {
		t.Fatal(err)
	}
	dropSpares()
	t.Cleanup(dropSpares)

	campaigns := []struct {
		name      string
		axis      []int
		configure func(int) (Config, error)
		want      artefacts
	}{
		{"faulted Fire", FireSweep(), fire, wantFire},
		{"clean SystemG extended", gAxis, extended, wantG},
		{"faulted Fire again", FireSweep(), fire, wantFire},
	}
	for i, c := range campaigns {
		if i > 0 {
			spares.Lock()
			n := len(spares.list)
			spares.Unlock()
			if n == 0 {
				t.Fatalf("%s: no spare scratch left by the previous campaign", c.name)
			}
		}
		got, err := run(c.axis, c.configure)
		if err != nil {
			t.Fatal(err)
		}
		compare(c.name, got, c.want)
	}

	// Concurrent campaigns, as the campaign server runs them, share the
	// spare list: every campaign still matches its fresh run.
	var wg sync.WaitGroup
	got := make([]artefacts, len(campaigns))
	errs := make([]error, len(campaigns))
	for i, c := range campaigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(c.axis, c.configure)
		}()
	}
	wg.Wait()
	for i, c := range campaigns {
		if errs[i] != nil {
			t.Fatalf("%s, concurrent: %v", c.name, errs[i])
		}
		compare(c.name+", concurrent", got[i], c.want)
	}
}
