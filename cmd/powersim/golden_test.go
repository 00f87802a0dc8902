package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenMeterStreams pins powersim's CSV stream and run summary
// byte for byte for HPL and STREAM on a small and a full machine at the
// default seed and interval.
func TestGoldenMeterStreams(t *testing.T) {
	for _, c := range []struct {
		system string
		procs  int
	}{{"testbed", 4}, {"fire", 128}} {
		for _, b := range []string{"hpl", "stream"} {
			name := fmt.Sprintf("%s_%s_%d", b, c.system, c.procs)
			t.Run(name, func(t *testing.T) {
				var csv, rep bytes.Buffer
				if err := run(opts(c.system, c.procs, b, 1, 42), &csv, &rep); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join("testdata", name+".csv"), csv.Bytes())
				checkGolden(t, filepath.Join("testdata", name+".report.txt"), rep.Bytes())
			})
		}
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed (%d bytes, golden %d); rerun with -update only if the change is intended",
			path, len(got), len(want))
	}
}
