// Package paper regenerates every table and figure of the paper's
// evaluation (Section IV) from the simulated Fire and SystemG clusters:
//
//	Figure 2 — energy efficiency of HPL (MFLOPS/W) vs MPI processes
//	Figure 3 — energy efficiency of STREAM (MB/s per W) vs MPI processes
//	Figure 4 — energy efficiency of IOzone write (MB/s per W) vs nodes
//	Figure 5 — TGI (arithmetic mean) vs cores
//	Figure 6 — TGI with time/energy/power weights vs cores
//	Table I  — performance and power of each benchmark on SystemG
//	Table II — Pearson correlation between per-benchmark efficiency and TGI
//
// A Dataset is one full reproduction run: the Fire sweep, the SystemG
// reference point, and everything derived from them. All figures and tables
// are deterministic functions of the dataset.
package paper

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iozone"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/suite"
	"repro/internal/units"
)

// Schemes evaluated by the TGI figures, in presentation order.
var Schemes = []core.Scheme{
	core.ArithmeticMean,
	core.TimeWeighted,
	core.EnergyWeighted,
	core.PowerWeighted,
}

// Dataset is one full reproduction run.
type Dataset struct {
	Procs     []int           // sweep axis (Fire)
	Results   []*suite.Result // Fire suite runs, one per Procs entry
	Reference *suite.Result   // SystemG at 1024 cores

	// EE holds each benchmark's efficiency curve over the sweep, in the
	// benchmark's metric per watt (Equation 2).
	EE map[string][]float64
	// REE holds the relative efficiency curves (Equation 3).
	REE map[string][]float64
	// TGI holds the index curve per weighting scheme (Equation 4).
	TGI map[core.Scheme][]float64
}

// NewDataset runs the full reproduction: the SystemG reference point and
// the Fire sweep, then derives the EE, REE and TGI curves.
func NewDataset() (*Dataset, error) {
	return NewDatasetOn(cluster.Fire(), cluster.SystemG(), suite.FireSweep())
}

// NewDatasetOn is NewDataset with explicit machines and sweep, used by the
// ablation benches to rerun the pipeline under modified conditions.
func NewDatasetOn(fire, refSpec *cluster.Spec, procs []int) (*Dataset, error) {
	return NewDatasetSeeded(fire, refSpec, procs, 17)
}

// NewDatasetSeeded reruns the full reproduction under an independent
// meter-noise seed. The paper's correlation results should not hinge on a
// particular run's gauge noise; Table II's structure must be stable across
// seeds (tested in paper_test.go).
func NewDatasetSeeded(fire, refSpec *cluster.Spec, procs []int, seedBase uint64) (*Dataset, error) {
	refRes, err := suite.Run(suite.SeededConfig(refSpec, refSpec.TotalCores(), seedBase))
	if err != nil {
		return nil, fmt.Errorf("paper: reference run: %w", err)
	}
	results, err := suite.SweepSeeded(fire, procs, seedBase)
	if err != nil {
		return nil, err
	}
	return Derive(procs, results, refRes)
}

// Derive computes the EE/REE/TGI curves from raw suite results.
func Derive(procs []int, results []*suite.Result, ref *suite.Result) (*Dataset, error) {
	if len(procs) != len(results) {
		return nil, fmt.Errorf("paper: %d proc counts for %d results", len(procs), len(results))
	}
	d := &Dataset{
		Procs:     procs,
		Results:   results,
		Reference: ref,
		EE:        make(map[string][]float64),
		REE:       make(map[string][]float64),
		TGI:       make(map[core.Scheme][]float64),
	}
	refMs := ref.Measurements()
	for _, r := range results {
		ms := r.Measurements()
		for _, s := range Schemes {
			c, err := core.Compute(ms, refMs, s, nil)
			if err != nil {
				return nil, fmt.Errorf("paper: p=%d scheme=%v: %w", r.Procs, s, err)
			}
			d.TGI[s] = append(d.TGI[s], c.TGI)
			if s == core.ArithmeticMean {
				for i, b := range c.Benchmarks {
					d.EE[b] = append(d.EE[b], c.EE[i])
					d.REE[b] = append(d.REE[b], c.REE[i])
				}
			}
		}
	}
	return d, nil
}

// Fig1 renders the paper's measurement setup (its Figure 1): the whole
// cluster behind one wall-plug power meter. There is no data in the
// original figure — it documents the metering boundary that drives every
// other result, so it is reproduced as a diagram.
func Fig1(spec *cluster.Spec) string {
	return fmt.Sprintf(`Figure 1: Power Meter Setup
                                                                 
  wall outlet ──> [ Watts Up? PRO ES meter ] ──> power strip ──┬──> node 1 ┐
                    1 sample/s, 0.1 W resolution               ├──> node 2 │ %s:
                    samples -> serial log -> energy integral   ├──>  ...   │ %d nodes,
                                                               ├──> node %d ┘ %d cores
                                                               ├──> %s switch
                                                               └──> shared storage
  Everything — active nodes, idle nodes, fabric, storage — sits inside the
  metered envelope, so idle power is charged to every benchmark run.
`, spec.Name, spec.Nodes, spec.Nodes, spec.TotalCores(), spec.Interconnect.Name)
}

// xs converts the proc axis to float for charting.
func (d *Dataset) xs() []float64 {
	out := make([]float64, len(d.Procs))
	for i, p := range d.Procs {
		out[i] = float64(p)
	}
	return out
}

// Fig2 is the HPL efficiency curve, reported in MFLOPS/W as in the paper.
func (d *Dataset) Fig2() *report.Chart {
	y := make([]float64, len(d.Procs))
	for i, ee := range d.EE[suite.BenchHPL] {
		y[i] = ee * 1000 // GFLOPS/W -> MFLOPS/W
	}
	return &report.Chart{
		Title:  "Figure 2: Energy Efficiency of HPL (Fire cluster)",
		XLabel: "Number of MPI Processes",
		YLabel: "MFLOPS/Watt",
		X:      d.xs(),
		Series: []report.Series{{Name: "HPL", Y: y}},
	}
}

// Fig3 is the STREAM efficiency curve (MB/s per watt).
func (d *Dataset) Fig3() *report.Chart {
	return &report.Chart{
		Title:  "Figure 3: Energy Efficiency of Stream (Fire cluster)",
		XLabel: "Number of MPI Processes",
		YLabel: "MBPS/Watt",
		X:      d.xs(),
		Series: []report.Series{{Name: "STREAM Triad", Y: d.EE[suite.BenchSTREAM]}},
	}
}

// Fig4Point is one node count of the IOzone sweep.
type Fig4Point struct {
	Nodes   int
	Rate    units.BytesPerSec
	Power   units.Watts
	EEMBpsW float64
}

// Fig4 runs the standalone IOzone node sweep (1..Nodes clients, one writer
// per node, fixed per-node file), metering each run — the paper's Figure 4.
func Fig4(spec *cluster.Spec) ([]Fig4Point, *report.Chart, error) {
	model, err := power.NewModel(spec)
	if err != nil {
		return nil, nil, err
	}
	var pts []Fig4Point
	for n := 1; n <= spec.Nodes; n++ {
		cfg := iozone.DefaultModelConfig(spec, n)
		res, err := iozone.Simulate(cfg)
		if err != nil {
			return nil, nil, err
		}
		meter, err := power.NewMeter(power.WattsUpPRO(uint64(n)*101 + 7))
		if err != nil {
			return nil, nil, err
		}
		trace, err := meter.Measure(model, res.Profile)
		if err != nil {
			return nil, nil, err
		}
		mean, err := trace.MeanPower()
		if err != nil {
			return nil, nil, err
		}
		pts = append(pts, Fig4Point{
			Nodes:   n,
			Rate:    res.Aggregate,
			Power:   mean,
			EEMBpsW: float64(res.Aggregate) / 1e6 / float64(mean),
		})
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.Nodes)
		ys[i] = p.EEMBpsW
	}
	chart := &report.Chart{
		Title:  fmt.Sprintf("Figure 4: Energy Efficiency of IOzone (%s cluster)", spec.Name),
		XLabel: "Number of Nodes",
		YLabel: "MBPS/Watt",
		X:      xs,
		Series: []report.Series{{Name: "IOzone write", Y: ys}},
	}
	return pts, chart, nil
}

// Fig5 is the TGI curve under arithmetic-mean weights.
func (d *Dataset) Fig5() *report.Chart {
	return &report.Chart{
		Title:  "Figure 5: TGI using Arithmetic Mean (Fire vs SystemG reference)",
		XLabel: "Number of Cores",
		YLabel: "Green Index",
		X:      d.xs(),
		Series: []report.Series{{Name: "TGI (arithmetic mean)", Y: d.TGI[core.ArithmeticMean]}},
	}
}

// Fig6 is the TGI curves under the weighted means.
func (d *Dataset) Fig6() *report.Chart {
	return &report.Chart{
		Title:  "Figure 6: TGI using Weighted Arithmetic Mean",
		XLabel: "Number of Cores",
		YLabel: "Green Index",
		X:      d.xs(),
		Series: []report.Series{
			{Name: "weights: time", Y: d.TGI[core.TimeWeighted]},
			{Name: "weights: energy", Y: d.TGI[core.EnergyWeighted]},
			{Name: "weights: power", Y: d.TGI[core.PowerWeighted]},
		},
	}
}

// Table1 is the reference system's per-benchmark performance and power
// (paper Table I).
func (d *Dataset) Table1() *report.Table {
	t := &report.Table{
		Title:   "Table I: Performance on SystemG (reference, 1024 cores)",
		Headers: []string{"Benchmark", "Performance", "Power"},
	}
	for _, m := range d.Reference.Measurements() {
		perf := ""
		switch m.Benchmark {
		case suite.BenchHPL:
			perf = units.FLOPS(m.Performance * 1e9).String()
		default:
			perf = fmt.Sprintf("%.4g MBPS", m.Performance)
		}
		t.AddRow(m.Benchmark, perf, m.Power.String())
	}
	return t
}

// PCC returns the Pearson correlation between one benchmark's efficiency
// curve and the TGI curve of the given scheme.
func (d *Dataset) PCC(bench string, s core.Scheme) (float64, error) {
	ee, ok := d.EE[bench]
	if !ok {
		return 0, fmt.Errorf("paper: unknown benchmark %q", bench)
	}
	tgi, ok := d.TGI[s]
	if !ok {
		return 0, fmt.Errorf("paper: no TGI for scheme %v", s)
	}
	return stats.Pearson(ee, tgi)
}

// Table2 is the PCC matrix (paper Table II) plus an arithmetic-mean column
// for the correlations quoted in the paper's prose (.99/.96/.58).
func (d *Dataset) Table2() (*report.Table, error) {
	t := &report.Table{
		Title:   "Table II: PCC between energy efficiency of individual benchmarks and TGI",
		Headers: []string{"Benchmark", "ArithMean", "Time", "Energy", "Power"},
	}
	order := []string{suite.BenchIOzone, suite.BenchSTREAM, suite.BenchHPL}
	for _, b := range order {
		row := []string{b}
		for _, s := range Schemes {
			r, err := d.PCC(b, s)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", r))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Check is one shape assertion of the reproduction.
type Check struct {
	Name   string
	Passed bool
	Detail string
}

// Verify evaluates the paper's qualitative claims against the dataset:
// the curve shapes of Figures 2-5 and the correlation structure of
// Table II. This is the "does the reproduction hold" gate used by tests,
// cmd/figures and EXPERIMENTS.md.
func (d *Dataset) Verify() []Check {
	var out []Check
	add := func(name string, ok bool, detail string, args ...any) {
		out = append(out, Check{Name: name, Passed: ok, Detail: fmt.Sprintf(detail, args...)})
	}

	// Figure 2: HPL efficiency rises with process count.
	hpl := d.EE[suite.BenchHPL]
	rising := true
	for i := 1; i < len(hpl); i++ {
		if hpl[i] <= hpl[i-1] {
			rising = false
		}
	}
	add("fig2-hpl-efficiency-rises", rising,
		"HPL MFLOPS/W %.1f -> %.1f across the sweep", hpl[0]*1000, hpl[len(hpl)-1]*1000)

	// Figure 3: STREAM efficiency peaks in the interior (rise then fall).
	st := d.EE[suite.BenchSTREAM]
	pk := argmax(st)
	add("fig3-stream-efficiency-peaks-interior", pk > 0 && pk < len(st)-1,
		"peak at p=%d (index %d of %d)", d.Procs[pk], pk, len(st))

	// IOzone efficiency within the sweep also peaks in the interior.
	io := d.EE[suite.BenchIOzone]
	pkIO := argmax(io)
	add("fig4-iozone-efficiency-peaks-interior", pkIO > 0 && pkIO < len(io)-1,
		"peak at p=%d", d.Procs[pkIO])

	// Figure 5: TGI (AM) tracks the saturating benchmarks: correlation
	// ordering IOzone >= STREAM > HPL, with HPL clearly lower (paper:
	// .99 / .96 / .58).
	rIO, err1 := d.PCC(suite.BenchIOzone, core.ArithmeticMean)
	rST, err2 := d.PCC(suite.BenchSTREAM, core.ArithmeticMean)
	rHPL, err3 := d.PCC(suite.BenchHPL, core.ArithmeticMean)
	ok := err1 == nil && err2 == nil && err3 == nil &&
		rIO >= rST && rST > rHPL && rIO > 0.9 && rST > 0.9 && rHPL < 0.75
	add("table2-am-correlation-ordering", ok,
		"PCC(AM): IOzone=%.2f STREAM=%.2f HPL=%.2f (paper: .99/.96/.58)", rIO, rST, rHPL)

	// Table II: energy- and power-weighted TGI correlate with HPL more
	// than the arithmetic mean does (the paper's "not a desired property").
	rHPLe, _ := d.PCC(suite.BenchHPL, core.EnergyWeighted)
	rHPLp, _ := d.PCC(suite.BenchHPL, core.PowerWeighted)
	add("table2-energy-weights-favor-hpl", rHPLe > rHPL+0.05,
		"PCC(HPL): energy=%.2f vs AM=%.2f", rHPLe, rHPL)
	add("table2-power-weights-favor-hpl", rHPLp > rHPL,
		"PCC(HPL): power=%.2f vs AM=%.2f", rHPLp, rHPL)

	// The reference system's TGI against itself is 1 (metric anchor).
	refMs := d.Reference.Measurements()
	c, err := core.Compute(refMs, refMs, core.ArithmeticMean, nil)
	add("tgi-self-reference-anchor", err == nil && math.Abs(c.TGI-1) < 1e-9,
		"self-TGI = %v", c.TGI)

	// Table I: the reference delivers ~8.1 TFLOPS on HPL.
	var hplPerf float64
	for _, m := range refMs {
		if m.Benchmark == suite.BenchHPL {
			hplPerf = m.Performance
		}
	}
	add("table1-reference-hpl-tflops", hplPerf > 7000 && hplPerf < 9500,
		"SystemG HPL = %.2f TFLOPS (paper Table I: ~8.1)", hplPerf/1000)

	return out
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
