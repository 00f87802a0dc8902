package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(0)
	var order []int
	if _, err := e.At(2, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(1, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(3, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := e.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := NewEngine(0)
	if _, err := e.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(5, func() {}); err == nil {
		t.Error("past event accepted")
	}
	if _, err := e.After(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(0)
	fired := false
	h, err := e.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if len(e.heap) != 0 {
		t.Errorf("pending = %d", len(e.heap))
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(0)
	var fired []units.Seconds
	for _, at := range []units.Seconds{1, 2, 3, 4, 5} {
		at := at
		if _, err := e.At(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(fired) != 3 {
		t.Errorf("n = %d, fired = %v", n, fired)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
	// Remaining events still run afterwards.
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("total fired = %d", len(fired))
	}
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine(10)
	var reschedule func()
	reschedule = func() {
		if _, err := e.After(1, reschedule); err != nil {
			t.Error(err)
		}
	}
	if _, err := e.After(1, reschedule); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err == nil {
		t.Error("infinite loop not caught by event limit")
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(0)
	if _, err := e.Run(42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Errorf("idle clock = %v, want 42", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUniformMean(t *testing.T) {
	r := NewRNG(42)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v", mean)
	}
}

// The normal sampler is pinned by its distribution, not its bits: each
// check runs at three fixed seeds over normDraws draws.
const normDraws = 1000000

var normSeeds = []uint64{1, 9, 42}

func drawNorms(seed uint64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, normDraws)
	for i := range xs {
		xs[i] = r.Norm()
	}
	return xs
}

func TestRNGNormMoments(t *testing.T) {
	for _, seed := range normSeeds {
		var sum, sq float64
		for _, v := range drawNorms(seed) {
			sum += v
			sq += v * v
		}
		mean := sum / normDraws
		variance := sq/normDraws - mean*mean
		// Five standard errors: 1/√n for the mean, √(2/n) for the variance.
		if math.Abs(mean) > 5/math.Sqrt(normDraws) {
			t.Errorf("seed %d: mean = %v", seed, mean)
		}
		if math.Abs(variance-1) > 5*math.Sqrt(2.0/normDraws) {
			t.Errorf("seed %d: variance = %v", seed, variance)
		}
	}
}

// TestRNGNormKolmogorovSmirnov compares the empirical distribution with
// Φ; 1.95/√n is the two-sided critical value at α = 0.001.
func TestRNGNormKolmogorovSmirnov(t *testing.T) {
	for _, seed := range normSeeds {
		xs := drawNorms(seed)
		sort.Float64s(xs)
		d := 0.0
		for i, x := range xs {
			phi := 0.5 * math.Erfc(-x/math.Sqrt2)
			d = max(d, float64(i+1)/normDraws-phi, phi-float64(i)/normDraws)
		}
		if limit := 1.95 / math.Sqrt(normDraws); d >= limit {
			t.Errorf("seed %d: KS statistic %v, critical value %v", seed, d, limit)
		}
	}
}

func TestRNGNormTails(t *testing.T) {
	p := math.Erfc(3 / math.Sqrt2) // P(|Z| > 3)
	sigma := math.Sqrt(p * (1 - p) / normDraws)
	for _, seed := range normSeeds {
		beyond3, above, below := 0, 0, 0
		for _, v := range drawNorms(seed) {
			if math.Abs(v) > 3 {
				beyond3++
			}
			if v > zigR {
				above++
			}
			if v < -zigR {
				below++
			}
		}
		if freq := float64(beyond3) / normDraws; math.Abs(freq-p) > 4*sigma {
			t.Errorf("seed %d: P(|Z|>3) = %v, want %v ± %v", seed, freq, p, 4*sigma)
		}
		// Draws beyond ±R come only from the base layer's tail branch,
		// which must give both signs.
		if above == 0 || below == 0 {
			t.Errorf("seed %d: %d draws above R = %v and %d below -R", seed, above, zigR, below)
		}
	}
}

func TestZigguratTables(t *testing.T) {
	r := zigR // a variable, so -r*r/2 rounds as init's does
	if zigF[0] != 1 || zigF[zigMask] != math.Exp(-0.5*r*r) {
		t.Errorf("f[0] = %v, f[127] = %v", zigF[0], zigF[zigMask])
	}
	for i := 1; i < zigLayers; i++ {
		// x_i rises and f(x_i) falls from the top layer to the base.
		if zigF[i] >= zigF[i-1] {
			t.Errorf("f not decreasing at %d: %v >= %v", i, zigF[i], zigF[i-1])
		}
		if i > 1 && zigW[i] <= zigW[i-1] {
			t.Errorf("w not increasing at %d: %v <= %v", i, zigW[i], zigW[i-1])
		}
		// A point of layer i is accepted at once below x_{i-1}.
		if want := uint32(zigW[i-1] / zigW[i] * zigScale); i > 1 && zigK[i] != want {
			t.Errorf("k[%d] = %d, want %d", i, zigK[i], want)
		}
		// Every layer above the base has area V: x_i·(f(x_{i-1}) − f(x_i)).
		area := zigW[i] * zigScale * (zigF[i-1] - zigF[i])
		if math.Abs(area/zigV-1) > 1e-8 {
			t.Errorf("layer %d has area %v, want %v", i, area, zigV)
		}
	}
	if zigK[1] != 0 {
		t.Errorf("k[1] = %d, want 0: x_0 = 0", zigK[1])
	}
}

// BenchmarkNorm times one standard normal draw.
func BenchmarkNorm(b *testing.B) {
	r := NewRNG(1)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += r.Norm()
	}
	normSink = sum
}

var normSink float64

func TestRNGFork(t *testing.T) {
	parent := NewRNG(5)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("forked streams with different labels coincide")
	}
	// Forking does not perturb the parent stream.
	ref := NewRNG(5)
	ref.Fork(1)
	ref.Fork(2)
	p2 := NewRNG(5)
	if parent.Uint64() != func() uint64 { p2.Fork(1); p2.Fork(2); return p2.Uint64() }() {
		t.Error("fork consumed parent entropy inconsistently")
	}
	_ = ref
}

func TestSharedResourceSingleJob(t *testing.T) {
	e := NewEngine(0)
	r, err := NewSharedResource(e, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt units.Seconds = -1
	if err := r.Submit(500, func() { doneAt = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(doneAt)-5) > 1e-9 {
		t.Errorf("single job done at %v, want 5", doneAt)
	}
}

func TestSharedResourceFairSharing(t *testing.T) {
	e := NewEngine(0)
	r, _ := NewSharedResource(e, 100, 0)
	var t1, t2 units.Seconds = -1, -1
	// Two equal jobs share capacity: each runs at 50 u/s, both finish at t=10.
	if err := r.Submit(500, func() { t1 = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(500, func() { t2 = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(t1)-10) > 1e-6 || math.Abs(float64(t2)-10) > 1e-6 {
		t.Errorf("shared jobs done at %v, %v; want 10, 10", t1, t2)
	}
}

func TestSharedResourceLateArrival(t *testing.T) {
	e := NewEngine(0)
	r, _ := NewSharedResource(e, 100, 0)
	var tA, tB units.Seconds = -1, -1
	if err := r.Submit(500, func() { tA = e.Now() }); err != nil {
		t.Fatal(err)
	}
	// Job B arrives at t=2.5: A has 250 left; both then run at 50 u/s.
	// A finishes at 2.5 + 250/50 = 7.5; B alone after that at 100 u/s:
	// B has 500 - 50*5 = 250 left at t=7.5, finishing at 10.
	if _, err := e.At(2.5, func() {
		if err := r.Submit(500, func() { tB = e.Now() }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(tA)-7.5) > 1e-6 {
		t.Errorf("tA = %v, want 7.5", tA)
	}
	if math.Abs(float64(tB)-10) > 1e-6 {
		t.Errorf("tB = %v, want 10", tB)
	}
}

func TestSharedResourcePerJobCap(t *testing.T) {
	e := NewEngine(0)
	// Backend can do 1000 u/s but each client is capped at 100 u/s.
	r, _ := NewSharedResource(e, 1000, 100)
	var done units.Seconds = -1
	if err := r.Submit(500, func() { done = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(done)-5) > 1e-9 {
		t.Errorf("capped job done at %v, want 5", done)
	}
}

func TestSharedResourceAccounting(t *testing.T) {
	e := NewEngine(0)
	r, _ := NewSharedResource(e, 100, 0)
	var done units.Seconds = -1
	if err := r.Submit(500, func() { done = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(done)-5) > 1e-6 {
		t.Errorf("500 units at 100/s done at %v, want 5", done)
	}
	if len(r.jobs) != 0 {
		t.Errorf("active = %d after drain", len(r.jobs))
	}
}

func TestSharedResourceRejectsBadInput(t *testing.T) {
	e := NewEngine(0)
	if _, err := NewSharedResource(e, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSharedResource(e, 10, -1); err == nil {
		t.Error("negative cap accepted")
	}
	r, _ := NewSharedResource(e, 10, 0)
	if err := r.Submit(0, nil); err == nil {
		t.Error("zero work accepted")
	}
}

// Work conservation: with no per-job cap the resource runs at full
// capacity whenever it holds a job, so every job finishes, and the last
// one at the time a single server draining the same arrivals in order
// would finish, regardless of arrival pattern.
func TestSharedResourceWorkConservation(t *testing.T) {
	f := func(sizes []uint16, gaps []uint16) bool {
		e := NewEngine(0)
		r, _ := NewSharedResource(e, 97, 0)
		free := 0.0 // when the single server would next be idle
		finished := 0
		at := units.Seconds(0)
		for i, s := range sizes {
			amt := float64(s%1000) + 1
			gap := 0.0
			if i < len(gaps) {
				gap = float64(gaps[i] % 50)
			}
			at += units.Seconds(gap)
			free = math.Max(free, float64(at)) + amt/97
			work := amt
			if _, err := e.At(at, func() {
				if err := r.Submit(work, func() { finished++ }); err != nil {
					panic(err)
				}
			}); err != nil {
				return false
			}
		}
		if _, err := e.RunAll(); err != nil {
			return false
		}
		return finished == len(sizes) && math.Abs(float64(e.Now())-free) <= 1e-6*(1+free)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
