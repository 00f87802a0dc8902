package paper

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/suite"
)

// newDataset is cached across tests: the full sweep is the expensive part.
var cached *Dataset

func dataset(t *testing.T) *Dataset {
	t.Helper()
	if cached == nil {
		d, err := NewDataset()
		if err != nil {
			t.Fatal(err)
		}
		cached = d
	}
	return cached
}

func TestDatasetStructure(t *testing.T) {
	d := dataset(t)
	if len(d.Procs) != len(d.Results) {
		t.Fatalf("axis %d vs results %d", len(d.Procs), len(d.Results))
	}
	for _, b := range suite.PaperOrder() {
		if len(d.EE[b]) != len(d.Procs) {
			t.Errorf("EE[%s] has %d points", b, len(d.EE[b]))
		}
		if len(d.REE[b]) != len(d.Procs) {
			t.Errorf("REE[%s] has %d points", b, len(d.REE[b]))
		}
	}
	for _, s := range Schemes {
		if len(d.TGI[s]) != len(d.Procs) {
			t.Errorf("TGI[%v] has %d points", s, len(d.TGI[s]))
		}
	}
}

func TestAllChecksPass(t *testing.T) {
	d := dataset(t)
	for _, c := range d.Verify() {
		if !c.Passed {
			t.Errorf("%s FAILED: %s", c.Name, c.Detail)
		} else {
			t.Logf("%s ok: %s", c.Name, c.Detail)
		}
	}
}

func TestTable2MatchesPaperBands(t *testing.T) {
	d := dataset(t)
	// The paper's prose quotes PCC(TGI_AM, ·) = .99 (IOzone), .96 (STREAM),
	// .58 (HPL). Require our values within ±0.08 of those.
	want := map[string]float64{
		suite.BenchIOzone: 0.99,
		suite.BenchSTREAM: 0.96,
		suite.BenchHPL:    0.58,
	}
	for b, w := range want {
		got, err := d.PCC(b, core.ArithmeticMean)
		if err != nil {
			t.Fatal(err)
		}
		if got < w-0.08 || got > w+0.08 {
			t.Errorf("PCC(AM, %s) = %.3f, paper %.2f (band ±0.08)", b, got, w)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	pts, chart, err := Fig4(cluster.Fire())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points", len(pts))
	}
	// Efficiency rises while the backend ramps, then falls once saturated:
	// the peak must be interior.
	peak := 0
	for i, p := range pts {
		if p.EEMBpsW > pts[peak].EEMBpsW {
			peak = i
		}
	}
	if peak == 0 || peak == len(pts)-1 {
		t.Errorf("IOzone efficiency peak at boundary (index %d)", peak)
	}
	// Throughput is nondecreasing and saturates at the backend ceiling.
	last := pts[len(pts)-1]
	if float64(last.Rate) < 350e6 || float64(last.Rate) > 420e6 {
		t.Errorf("saturated rate = %v", last.Rate)
	}
	var sb strings.Builder
	if err := chart.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Error("chart missing title")
	}
}

func TestChartsRender(t *testing.T) {
	d := dataset(t)
	var sb strings.Builder
	for _, render := range []func() error{
		func() error { return d.Fig2().Render(&sb) },
		func() error { return d.Fig3().Render(&sb) },
		func() error { return d.Fig5().Render(&sb) },
		func() error { return d.Fig6().Render(&sb) },
	} {
		if err := render(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 5", "Figure 6", "MFLOPS/Watt", "Green Index"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered charts missing %q", want)
		}
	}
}

func TestTable1(t *testing.T) {
	d := dataset(t)
	tab := d.Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("Table I has %d rows", len(tab.Rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"HPL", "STREAM", "IOzone", "TFLOPS", "KW"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	d := dataset(t)
	tab, err := d.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Headers) != 5 {
		t.Fatalf("Table II shape: %d rows, %d cols", len(tab.Rows), len(tab.Headers))
	}
	var sb strings.Builder
	if err := tab.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "IOzone") {
		t.Error("CSV missing data")
	}
}

func TestPCCErrors(t *testing.T) {
	d := dataset(t)
	if _, err := d.PCC("nope", core.ArithmeticMean); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := d.PCC(suite.BenchHPL, core.Custom); err == nil {
		t.Error("missing scheme accepted")
	}
}

func TestDeriveValidation(t *testing.T) {
	if _, err := Derive([]int{1, 2}, nil, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestNewDatasetOnSmallCluster(t *testing.T) {
	d, err := NewDatasetOn(cluster.Testbed(), cluster.Testbed(), []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.TGI[core.ArithmeticMean]) != 3 {
		t.Errorf("TGI points = %d", len(d.TGI[core.ArithmeticMean]))
	}
}

func TestTable2StableUnderMeterNoise(t *testing.T) {
	// The correlation structure is a claim about the system, not about one
	// meter run: rerun the entire pipeline under three independent noise
	// seeds and require the AM-column ordering and bands to hold each time.
	for _, seed := range []uint64{101, 202, 303} {
		d, err := NewDatasetSeeded(cluster.Fire(), cluster.SystemG(), suite.FireSweep(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rIO, err := d.PCC(suite.BenchIOzone, core.ArithmeticMean)
		if err != nil {
			t.Fatal(err)
		}
		rST, _ := d.PCC(suite.BenchSTREAM, core.ArithmeticMean)
		rHPL, _ := d.PCC(suite.BenchHPL, core.ArithmeticMean)
		if !(rIO > 0.9 && rST > 0.9 && rHPL < 0.75 && rIO >= rST) {
			t.Errorf("seed %d: PCC ordering broke: io=%.3f st=%.3f hpl=%.3f",
				seed, rIO, rST, rHPL)
		}
	}
}

func TestFig1Diagram(t *testing.T) {
	out := Fig1(cluster.Fire())
	for _, want := range []string{"Watts Up? PRO", "Fire", "8 nodes", "128 cores", "10 GbE", "metered envelope"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}
