package suite

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/units"
)

// marshalIndentFile is the results file encoding/json would write: what
// SaveJSON wrote before it had its own encoder.
func marshalIndentFile(results []*Result) ([]byte, error) {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// saveAndRead runs SaveJSON into a fresh file and returns its bytes.
func saveAndRead(t *testing.T, results []*Result) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := SaveJSON(path, results); err != nil {
		t.Fatalf("SaveJSON: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// requireSameBytes reports the first byte where got leaves want.
func requireSameBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Errorf("%s: SaveJSON (%d bytes) leaves encoding/json (%d bytes) at byte %d:\n got %q\nwant %q",
		name, len(got), len(want), i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// jsonEdgeStrings are the strings whose escaping encoding/json
// special-cases: HTML characters, the JavaScript line separators, the
// short control escapes, other control bytes, DEL, invalid and truncated
// UTF-8, and valid multi-byte runes.
var jsonEdgeStrings = []string{
	"",
	"plain",
	"<script>alert('x')</script> & more",
	"line sep \xe2\x80\xa8 and para sep \xe2\x80\xa9",
	"back\bspace and form\ffeed",
	"tab\tnewline\ncarriage\rreturn",
	"nul \x00, unit sep \x1f, escape \x1b, del \x7f",
	"quote \" and backslash \\",
	"invalid \xff\xfe bytes and truncated \xe2\x80",
	"h\xc3\xa9llo \xf0\x9f\x98\x80 \xef\xbf\xbd",
}

// jsonEdgeFloats are the floats whose formatting encoding/json
// special-cases: both zeros, subnormals, both sides of the 1e-6 and 1e21
// switches between 'f' and 'e', and one- and three-digit exponents.
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 1e-10, 1.234e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.7976931348623157e308,
	0.1, 1, -1, 100, 123456789.12345678, 1e20,
}

// TestSaveJSONMatchesEncodingJSON is SaveJSON's oracle: its file must hold
// the bytes json.MarshalIndent(results, "", "  ") returns plus a newline,
// on real sweeps and on hand-built edge cases, and a float encoding/json
// refuses must be an error that leaves the file alone.
func TestSaveJSONMatchesEncodingJSON(t *testing.T) {
	t.Run("extended SystemG sweep", func(t *testing.T) {
		spec := cluster.SystemG()
		rs, err := RunSweepPlan(SweepPlan{
			Axis: DefaultAxis(spec),
			Configure: func(p int) (Config, error) {
				cfg := DefaultConfig(spec, p)
				cfg.Benchmarks = ExtendedOrder
				return cfg, nil
			},
			Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalIndentFile(rs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, "clean sweep", saveAndRead(t, rs), want)
	})

	t.Run("faulted Fire sweep", func(t *testing.T) {
		spec := cluster.Fire()
		rs, err := RunSweepPlan(SweepPlan{
			Axis: FireSweep(),
			Configure: func(p int) (Config, error) {
				cfg := DefaultConfig(spec, p)
				cfg.Faults = &faults.Plan{
					Seed:      4,
					CrashProb: 0.5,
					Crashes:   []faults.Crash{{Benchmark: BenchSTREAM, Node: 1, At: 1}},
					Straggler: &faults.Straggler{Prob: 0.1, ClockFactor: 0.5},
					Meter:     &faults.Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 60},
				}
				cfg.Retry = RetryPolicy{MaxAttempts: 2, Backoff: 30}
				return cfg, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalIndentFile(rs)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"status", "retries", "error", "wasted_time", "gaps_filled", "outliers_rejected", "degraded", "warnings"} {
			if !bytes.Contains(want, []byte(`"`+key+`": `)) {
				t.Errorf("the faulted sweep never writes %q, so it does not test that field", key)
			}
		}
		requireSameBytes(t, "faulted sweep", saveAndRead(t, rs), want)
	})

	t.Run("hand-built", func(t *testing.T) {
		run := func(m core.Measurement) BenchmarkRun {
			return BenchmarkRun{Measurement: m, PeakPower: 1, Samples: 3}
		}
		edge := &Result{System: "edge", Procs: 2, Placement: "cyclic", Warnings: []string{}}
		for i, s := range jsonEdgeStrings {
			edge.Runs = append(edge.Runs, BenchmarkRun{
				Measurement: core.Measurement{Benchmark: s, Metric: s},
				Status:      Status(s), Error: s, Retries: -i,
			})
		}
		edge.Warnings = append(edge.Warnings, jsonEdgeStrings...)
		for _, f := range jsonEdgeFloats {
			edge.Runs = append(edge.Runs, BenchmarkRun{
				Measurement: core.Measurement{Performance: f, Power: units.Watts(f), Time: units.Seconds(f), Energy: units.Joules(f)},
				PeakPower:   units.Watts(f), WastedTime: units.Seconds(f), GapsFilled: -1, OutliersRejected: 1,
			})
		}
		cases := map[string][]*Result{
			"nil results":   nil,
			"empty results": {},
			"nil entry":     {nil},
			"nil runs":      {{System: "a", Runs: nil}},
			"empty runs":    {{System: "a", Runs: []BenchmarkRun{}}, nil},
			"empty warnings": {{
				System: "<&>", Procs: math.MaxInt64, ActiveNodes: math.MinInt64,
				Runs: []BenchmarkRun{run(core.Measurement{Benchmark: "HPL"})}, Warnings: []string{},
			}},
			"degraded": {{System: "a", Degraded: true, Warnings: []string{"w"}, Runs: []BenchmarkRun{{Status: StatusFailed}}}},
			"edges":    {edge, nil, edge},
		}
		for name, rs := range cases {
			want, err := marshalIndentFile(rs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameBytes(t, name, saveAndRead(t, rs), want)
		}
	})

	t.Run("unsupported floats", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "results.json")
		const old = "the previous results\n"
		if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
			t.Fatal(err)
		}
		set := []func(b *BenchmarkRun, f float64){
			func(b *BenchmarkRun, f float64) { b.Measurement.Performance = f },
			func(b *BenchmarkRun, f float64) { b.Measurement.Power = units.Watts(f) },
			func(b *BenchmarkRun, f float64) { b.Measurement.Time = units.Seconds(f) },
			func(b *BenchmarkRun, f float64) { b.Measurement.Energy = units.Joules(f) },
			func(b *BenchmarkRun, f float64) { b.PeakPower = units.Watts(f) },
			func(b *BenchmarkRun, f float64) { b.WastedTime = units.Seconds(f) },
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for field, setField := range set {
				rs := []*Result{{System: "a", Runs: make([]BenchmarkRun, 2)}}
				setField(&rs[0].Runs[1], f)
				_, wantErr := json.MarshalIndent(rs, "", "  ")
				err := SaveJSON(path, rs)
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Errorf("%v in field %d: SaveJSON error %v, encoding/json %v", f, field, err, wantErr)
				}
				if got, _ := os.ReadFile(path); string(got) != old {
					t.Fatalf("%v in field %d: the refused save rewrote the file: %q", f, field, got)
				}
			}
		}
	})
}

// FuzzResultsJSON builds results from arbitrary strings, integers and
// floats, NaN and infinities included, in shapes chosen by the bits of
// shape, and requires appendResults, the encoder SaveJSON writes through,
// to return encoding/json's bytes or, where encoding/json refuses, the
// same error.
func FuzzResultsJSON(f *testing.F) {
	f.Add("SystemG", "cyclic", "GFLOPS", 8, 2, 1.5, 250.0, 12.25, uint8(0))
	f.Add("<&>", "\xe2\x80\xa8\b\f", "\xff\x00", -1, 0, 1e-7, 1e21, math.Copysign(0, -1), uint8(0xff))
	f.Add("a", "b", "c", 1, 1, math.NaN(), 1.0, 1.0, uint8(0x10))
	f.Add("a", "b", "c", 1, 1, 1.0, math.Inf(1), 1.0, uint8(0x30))
	f.Add("a", "b", "c", 1, 1, 1.0, 1.0, math.Inf(-1), uint8(0x01))
	f.Add("", "", "", 0, 0, 0.0, 0.0, 0.0, uint8(0x02))
	f.Fuzz(func(t *testing.T, a, b, c string, i, j int, x, y, z float64, shape uint8) {
		var rs []*Result
		if shape&0x01 == 0 {
			run := BenchmarkRun{
				Measurement: core.Measurement{Benchmark: a, Metric: c, Performance: x, Power: units.Watts(y), Time: units.Seconds(z), Energy: units.Joules(x * y)},
				PeakPower:   units.Watts(y - z), Samples: i ^ j,
			}
			if shape&0x10 != 0 {
				run.Status, run.Retries, run.Error, run.WastedTime = Status(c), j, b, units.Seconds(z-x)
				run.GapsFilled, run.OutliersRejected = i, -j
			}
			r := &Result{System: a, Procs: i, ActiveNodes: j, Placement: b, Degraded: shape&0x20 != 0}
			switch {
			case shape&0x02 != 0:
			case shape&0x04 != 0:
				r.Runs = []BenchmarkRun{}
			default:
				r.Runs = []BenchmarkRun{run, {}, run}
			}
			if shape&0x08 != 0 {
				r.Warnings = []string{c, a, b}
			} else if shape&0x40 != 0 {
				r.Warnings = []string{}
			}
			rs = []*Result{r, r}
			if shape&0x80 != 0 {
				rs = append(rs, nil)
			}
		} else if shape&0x02 != 0 {
			rs = []*Result{}
		}
		want, wantErr := marshalIndentFile(rs)
		got, err := appendResults(nil, rs)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("encoding/json refuses with %v, appendResults gives error %v", wantErr, err)
			}
		case err != nil:
			t.Fatalf("encoding/json encodes, appendResults refuses: %v", err)
		case !bytes.Equal(got, want):
			requireSameBytes(t, "fuzzed results", got, want)
		}
		if err == nil && !strings.HasSuffix(string(got), "\n") {
			t.Fatalf("encoding lacks its trailing newline")
		}
	})
}
