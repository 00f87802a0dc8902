package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/suite"
)

func TestParseWeights(t *testing.T) {
	ws, err := parseWeights("0.5, 0.3,0.2")
	if err != nil || len(ws) != 3 || ws[0] != 0.5 || ws[2] != 0.2 {
		t.Errorf("parseWeights = %v, %v", ws, err)
	}
	if ws, err := parseWeights(""); err != nil || ws != nil {
		t.Errorf("empty weights = %v, %v", ws, err)
	}
	if _, err := parseWeights("1,x"); err == nil {
		t.Error("bad weight accepted")
	}
}

func writeRun(t *testing.T, spec *cluster.Spec, procs int, path string) {
	t.Helper()
	r, err := suite.Run(suite.DefaultConfig(spec, procs))
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.SaveJSON(path, []*suite.Result{r}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	testPath := filepath.Join(dir, "fire.json")
	refPath := filepath.Join(dir, "ref.json")
	writeRun(t, cluster.Testbed(), 8, testPath)
	writeRun(t, cluster.Testbed(), 8, refPath)
	for _, scheme := range []string{"am", "time", "energy", "power"} {
		if err := run(testPath, refPath, scheme, "arithmetic", "", true); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
	if err := run(testPath, refPath, "custom", "geometric", "1,2,3", false); err != nil {
		t.Errorf("custom: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "am", "arithmetic", "", false); err == nil {
		t.Error("missing paths accepted")
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "r.json")
	writeRun(t, cluster.Testbed(), 4, p)
	if err := run(p, p, "custom", "arithmetic", "", false); err == nil {
		t.Error("custom without weights accepted")
	}
	if err := run(p, filepath.Join(dir, "missing.json"), "am", "arithmetic", "", false); err == nil {
		t.Error("missing reference accepted")
	}
	// Reference file with more than one run is rejected.
	multi := filepath.Join(dir, "multi.json")
	rs, err := suite.Sweep(cluster.Testbed(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.SaveJSON(multi, rs); err != nil {
		t.Fatal(err)
	}
	if err := run(p, multi, "am", "arithmetic", "", false); err == nil {
		t.Error("multi-run reference accepted")
	}
}

func TestRunDegradedResultsGetPartialTGI(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	writeRun(t, cluster.Testbed(), 8, refPath)
	// A run whose STREAM benchmark died without retries: tgi must fall back
	// to the partial TGI over the survivors instead of erroring out.
	cfg := suite.DefaultConfig(cluster.Testbed(), 4)
	cfg.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Benchmark: "STREAM", Node: 0, At: 50, Attempt: 0}},
	}
	r, err := suite.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("fixture run not degraded")
	}
	degPath := filepath.Join(dir, "deg.json")
	if err := suite.SaveJSON(degPath, []*suite.Result{r}); err != nil {
		t.Fatal(err)
	}
	if err := run(degPath, refPath, "am", "arithmetic", "", true); err != nil {
		t.Errorf("degraded results rejected: %v", err)
	}
	// Custom weights stay positional over the full three-benchmark list.
	if err := run(degPath, refPath, "custom", "arithmetic", "0.5,0.3,0.2", false); err != nil {
		t.Errorf("custom weights over degraded results: %v", err)
	}
}

func TestRunCorruptResultsFile(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	writeRun(t, cluster.Testbed(), 4, refPath)
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`[{"system": "fire", "runs": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(corrupt, refPath, "am", "arithmetic", "", false)
	if err == nil {
		t.Fatal("truncated results file accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "corrupt.json") || !strings.Contains(msg, "malformed JSON") {
		t.Errorf("unhelpful truncation error: %v", err)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error is not one line: %q", msg)
	}
	// Wrong-type damage gets a field-level description.
	wrongType := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrongType, []byte(`[{"system": 42}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(wrongType, refPath, "am", "arithmetic", "", false)
	if err == nil {
		t.Fatal("type-damaged results file accepted")
	}
	if !strings.Contains(err.Error(), "system") {
		t.Errorf("type error does not name the field: %v", err)
	}
}

func TestRunHarmonicMean(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "r.json")
	writeRun(t, cluster.Testbed(), 8, p)
	if err := run(p, p, "am", "harmonic", "", false); err != nil {
		t.Fatal(err)
	}
}

// TestRunAcceptsPrintedNames: the names tgi prints in its table title
// are names -scheme and -mean accept.
func TestRunAcceptsPrintedNames(t *testing.T) {
	p := filepath.Join(t.TempDir(), "r.json")
	writeRun(t, cluster.Testbed(), 8, p)
	for _, s := range []core.Scheme{core.ArithmeticMean, core.TimeWeighted, core.EnergyWeighted, core.PowerWeighted} {
		if err := run(p, p, s.String(), core.Geometric.String(), "", false); err != nil {
			t.Errorf("-scheme %s: %v", s, err)
		}
	}
}

// TestRunRejectsNullEntries: a results or reference file holding a null
// entry is an error naming the file, not a nil dereference.
func TestRunRejectsNullEntries(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeRun(t, cluster.Testbed(), 4, good)
	null := filepath.Join(dir, "null.json")
	if err := os.WriteFile(null, []byte("[null]"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{{null, good}, {good, null}} {
		err := run(c[0], c[1], "am", "arithmetic", "", false)
		if err == nil || !strings.Contains(err.Error(), "null.json") {
			t.Errorf("-results %s -ref %s: %v", filepath.Base(c[0]), filepath.Base(c[1]), err)
		}
	}
}
