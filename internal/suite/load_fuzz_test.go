package suite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadJSON feeds arbitrary bytes to LoadJSON, the parser cmd/tgi runs
// on its -results and -ref files. No input may panic, and every accepted
// result must survive Measurements and Benchmarks, and SaveJSON must
// write it back as a file LoadJSON accepts again. The committed corpus (testdata/fuzz/FuzzLoadJSON)
// holds a valid sweep, null entries, a bare null, truncated JSON, a
// wrong-type field, an empty runs list and a failed run.
func FuzzLoadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := LoadJSON(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("rejection of %q does not name the file: %v", b, err)
			}
			return
		}
		for i, r := range rs {
			if n := len(r.Benchmarks()); n != len(r.Runs) {
				t.Fatalf("entry %d: %d benchmarks for %d runs", i, n, len(r.Runs))
			}
			if n := len(r.Measurements()); n > len(r.Runs) {
				t.Fatalf("entry %d: %d measurements for %d runs", i, n, len(r.Runs))
			}
		}
		if err := SaveJSON(path, rs); err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", b, err)
		}
		if back, err := LoadJSON(path); err != nil || len(back) != len(rs) {
			t.Fatalf("re-encoded %q does not load back: %d entries, %v", b, len(back), err)
		}
	})
}

func TestLoadJSONRejectsNullEntries(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"first":  "[null]",
		"second": `[{"system":"Testbed","procs":4,"runs":[]},null]`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadJSON(path)
		if err == nil {
			t.Fatalf("%s: null entry accepted", body)
		}
		want := "entry 0"
		if name == "second" {
			want = "entry 1"
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name the file and %s", body, err, want)
		}
	}
}
