package suite

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzOpenJournal feeds arbitrary bytes to OpenJournal, the parser a
// resumed sweep runs on the journal a killed run left behind. No input
// may panic; every rejection must tell the user to delete the file; and
// an opened journal must survive Flush and a reopen with the same cell
// count and the same Lookup and LookupTrace answer for every cell, and
// then take a checkpoint. The committed corpus
// (testdata/fuzz/FuzzOpenJournal) holds a valid traced journal, the same
// journal truncated, a v3 layout, a null cells map and a null cell.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			if !strings.Contains(err.Error(), "; delete it to start over") {
				t.Fatalf("rejection of %q does not say how to recover: %v", b, err)
			}
			return
		}
		if err := j.Flush(); err != nil {
			t.Fatalf("opened %q but cannot flush it: %v", b, err)
		}
		// The flush spliced its cached trace encodings into encoding/json's
		// output for the rest; the file must be encoding/json's whole.
		want, err := json.MarshalIndent(journalFile{Version: journalVersion, Benchmarks: j.benchmarks, Cells: j.cells, Traces: j.traces}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%q flushes as\n%s\nnot encoding/json's\n%s", b, got, want)
		}
		back, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("flushed %q does not reopen: %v", b, err)
		}
		if back.Len() != j.Len() {
			t.Fatalf("%q: %d cells after a flush, %d before", b, back.Len(), j.Len())
		}
		// Answers compare as JSON: the journal stores what encoding/json
		// reads, and an empty list it drops on writing reads back as nil.
		same := func(x, y any) bool {
			bx, _ := json.Marshal(x)
			by, _ := json.Marshal(y)
			return bytes.Equal(bx, by)
		}
		keys := make([]string, 0, len(j.cells)+len(j.traces))
		for key := range j.cells {
			keys = append(keys, key)
		}
		for key := range j.traces {
			keys = append(keys, key)
		}
		for _, key := range keys {
			run, ok := j.Lookup(key)
			got, gotOK := back.Lookup(key)
			if gotOK != ok || !same(got, run) {
				t.Fatalf("%q: cell %q reads back as %+v (found %t), want %+v (found %t)", b, key, got, gotOK, run, ok)
			}
			tr, traced := j.LookupTrace(key)
			gotTr, gotTraced := back.LookupTrace(key)
			if gotTraced != traced || !same(gotTr, tr) {
				t.Fatalf("%q: trace of %q reads back as %+v (found %t), want %+v (found %t)",
					b, key, gotTr, gotTraced, tr, traced)
			}
		}
		// A resumed sweep checkpoints its remaining cells into the journal.
		if err := back.Record(CellKey("Testbed", 1, "cyclic", BenchHPL), BenchmarkRun{}); err != nil {
			t.Fatalf("%q: reopened journal cannot checkpoint: %v", b, err)
		}
	})
}
