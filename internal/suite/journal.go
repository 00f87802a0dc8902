package suite

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/units"
)

// journalVersion is the only on-disk layout OpenJournal reads. v4 stores
// each traced benchmark's cell-relative end clock next to its trace, so a
// resumed cell continues on exactly the clock the original run reached.
// Journals are transient resume state: a file in any other layout is
// refused with a pointer to delete it, never migrated.
const journalVersion = 4

// Journal checkpoints completed (system, procs, placement, benchmark)
// cells of a sweep to a JSON file, so an interrupted campaign resumes
// where it stopped instead of re-simulating finished work. Every cell is
// an independent, deterministically-seeded computation, so a resumed
// sweep's output is bit-for-bit the uninterrupted one.
//
// When the campaign is traced, each cell also checkpoints the spans and
// events it emitted (in cell-relative time); a resumed sweep replays
// them into the cell's tracer, so the final trace file covers the whole
// campaign, not just the cells executed after the restart.
//
// The file is rewritten atomically (temp file + rename) after every cell:
// a crash mid-checkpoint leaves the previous consistent journal behind.
// All methods are safe for concurrent use — the sweep scheduler's
// workers checkpoint cells from several goroutines.
type Journal struct {
	path string

	mu         sync.Mutex
	cells      map[string]BenchmarkRun
	traces     map[string]CellTrace
	benchmarks []string
	// encoded caches each trace's encoding (appendTrace), made at the
	// first flush that writes the trace. The journal is rewritten whole
	// after every cell, so without it every span attribute of every
	// earlier cell would be formatted again at each checkpoint.
	// Whatever replaces or drops a trace drops its entry.
	encoded map[string][]byte
	// buf holds the last flush's file bytes when it had traces.
	buf []byte
}

// CellTrace is the observability stream one journaled benchmark produced,
// in cell-relative virtual time. Ops is the benchmark's metric-update
// log; replaying it on resume rebuilds the campaign registry bit-for-bit,
// so a resumed campaign's metrics file is byte-identical to the
// uninterrupted one. End is the cell clock when the benchmark finished:
// a resumed cell restores it verbatim instead of re-summing the run's
// times, which would drift the rest of the cell's spans by an ulp.
type CellTrace struct {
	Spans  []obs.Span     `json:"spans,omitempty"`
	Events []obs.Event    `json:"events,omitempty"`
	Ops    []obs.MetricOp `json:"ops,omitempty"`
	End    units.Seconds  `json:"end,omitempty"`
}

// journalFile is the on-disk layout (see journalVersion).
type journalFile struct {
	Version    int                     `json:"version"`
	Benchmarks []string                `json:"benchmarks,omitempty"`
	Cells      map[string]BenchmarkRun `json:"cells"`
	Traces     map[string]CellTrace    `json:"traces,omitempty"`
}

// CellKey names one benchmark of one sweep point.
func CellKey(system string, procs int, placement, bench string) string {
	return fmt.Sprintf("%s|%d|%s|%s", system, procs, placement, bench)
}

// OpenJournal loads the journal at path, or starts an empty one when the
// file does not exist yet. Only the current layout is accepted. Temp
// files a killed writer left behind mid-flush are swept away — thanks to
// the write-fsync-rename protocol they never hold the journal's only
// copy.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, cells: map[string]BenchmarkRun{}, traces: map[string]CellTrace{}, encoded: map[string][]byte{}}
	removeStaleTemps(path)
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return j, nil
	}
	if err != nil {
		return nil, err
	}
	var f journalFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("suite: journal %s is corrupt (%v); delete it to start over", path, err)
	}
	if f.Version != journalVersion {
		return nil, fmt.Errorf("suite: journal %s has layout v%d, but this build reads only v%d; delete it to start over", path, f.Version, journalVersion)
	}
	if f.Cells != nil {
		j.cells = f.Cells
	}
	if f.Traces != nil {
		j.traces = f.Traces
	}
	j.benchmarks = f.Benchmarks
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of checkpointed cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Bind ties the journal to the sweep's ordered benchmark list. A fresh
// journal records the list in its header; an existing one refuses a
// differing list — resuming a journal under a different suite
// composition would silently mix incomparable measurements. A journal
// written without a list (only through Record, never Bind) binds to
// whatever list the resuming sweep supplies.
func (j *Journal) Bind(benchmarks []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.benchmarks == nil {
		j.benchmarks = append([]string(nil), benchmarks...)
		return nil
	}
	if len(j.benchmarks) == len(benchmarks) {
		same := true
		for i := range benchmarks {
			if j.benchmarks[i] != benchmarks[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	return fmt.Errorf("suite: journal %s was written for benchmarks [%s], but this sweep runs [%s]; finish it with the original set, or delete the journal to start over",
		j.path, strings.Join(j.benchmarks, " "), strings.Join(benchmarks, " "))
}

// Lookup returns the checkpointed run for a cell, if present.
func (j *Journal) Lookup(key string) (BenchmarkRun, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	run, ok := j.cells[key]
	return run, ok
}

// LookupTrace returns the observability stream checkpointed for a cell.
// Cells recorded untraced have none.
func (j *Journal) LookupTrace(key string) (CellTrace, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	tr, ok := j.traces[key]
	return tr, ok
}

// SetTrace stages a cell's observability stream (cell-relative time)
// without persisting; the next Record flushes it together with the cell.
// Call it right before Record so a crash between the two cannot strand a
// trace.
func (j *Journal) SetTrace(key string, tr CellTrace) {
	if len(tr.Spans) == 0 && len(tr.Events) == 0 && len(tr.Ops) == 0 {
		return
	}
	j.mu.Lock()
	j.traces[key] = tr
	delete(j.encoded, key)
	j.mu.Unlock()
}

// Record checkpoints one cell and persists the journal.
func (j *Journal) Record(key string, run BenchmarkRun) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[key] = run
	return j.flushLocked()
}

// Stage records a cell (and its trace, if any) without persisting — the
// bulk-loading counterpart of SetTrace+Record for merging shard journal
// segments, where one Flush at the end beats a rewrite per cell.
func (j *Journal) Stage(key string, run BenchmarkRun, tr CellTrace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[key] = run
	delete(j.encoded, key)
	if len(tr.Spans) > 0 || len(tr.Events) > 0 || len(tr.Ops) > 0 {
		j.traces[key] = tr
	} else {
		delete(j.traces, key)
	}
}

// DropQuarantined removes every quarantined cell (and its trace) without
// persisting, so a user-driven resume re-runs the cells a lost shard
// worker never simulated.
func (j *Journal) DropQuarantined() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for key, run := range j.cells {
		if run.Status == StatusQuarantined {
			delete(j.cells, key)
			delete(j.traces, key)
			delete(j.encoded, key)
		}
	}
}

// Flush persists the journal (atomically: temp file, fsync, rename).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

// Remove deletes the journal file (after a sweep completes and its final
// output is safely written).
func (j *Journal) Remove() error {
	err := os.Remove(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// flushLocked writes the journal atomically; j.mu must be held.
//
// The write protocol is crash-safe: the new contents go to a temp file
// next to the journal, are fsynced to stable storage, and only then
// atomically renamed over the old file. A shard worker killed at any
// instant — even mid-write or between fsync and rename — therefore
// leaves either the previous consistent journal or the new one, never a
// torn file. Temp names embed the journal's own filename so concurrent
// journals in one directory (shard segments) cannot sweep each other's
// in-flight temps.
func (j *Journal) flushLocked() error {
	// The traces are the file's last field: encoding/json writes the
	// rest, and the cached trace encodings replace its closing brace,
	// in a buffer the journal keeps from one flush to the next.
	b, err := json.MarshalIndent(journalFile{Version: journalVersion, Benchmarks: j.benchmarks, Cells: j.cells}, "", "  ")
	if err != nil {
		return err
	}
	out := append(b, '\n')
	if len(j.traces) > 0 {
		if j.buf, err = j.appendTraces(append(j.buf[:0], b[:len(b)-len("\n}")]...)); err != nil {
			return err
		}
		j.buf = append(j.buf, "\n}\n"...)
		out = j.buf
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, tempPattern(j.path))
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), j.path)
}

// appendTraces appends the traces field as json.MarshalIndent writes
// journalFile's Traces after the fields before it, encoding each trace
// once and reusing that encoding at later flushes. j.mu must be held.
func (j *Journal) appendTraces(b []byte) ([]byte, error) {
	keys := make([]string, 0, len(j.traces))
	for key, tr := range j.traces {
		if _, ok := j.encoded[key]; !ok {
			enc, err := appendTrace(nil, &tr)
			if err != nil {
				return nil, err
			}
			j.encoded[key] = enc
		}
		keys = append(keys, key)
	}
	slices.Sort(keys)
	b = append(b, ",\n  \"traces\": {"...)
	for i, key := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = obs.AppendJSONString(append(b, "\n    "...), key, true)
		b = append(append(b, ": "...), j.encoded[key]...)
	}
	return append(b, "\n  }"...), nil
}

// tempPattern is the os.CreateTemp pattern for a journal's in-flight
// writes: ".<name>.tmp-<random>" in the journal's directory.
func tempPattern(path string) string {
	return "." + filepath.Base(path) + ".tmp-*"
}

// removeStaleTemps sweeps temp files an earlier, killed writer of this
// journal left behind. Best-effort: an unremovable temp costs disk, not
// correctness.
func removeStaleTemps(path string) {
	pattern := filepath.Join(filepath.Dir(path), tempPattern(path))
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return
	}
	for _, m := range matches {
		os.Remove(m)
	}
}
