package shard

import (
	"bytes"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBeatWriterStampsSequence(t *testing.T) {
	var buf bytes.Buffer
	w := NewBeatWriter(&buf, 0)
	w.Hello()
	w.Cell("a")
	w.Tick()
	w.Done()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 beats, got %d: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		b, ok := ParseBeat([]byte(line))
		if !ok {
			t.Fatalf("line %d is not a beat: %q", i, line)
		}
		if b.Seq != uint64(i+1) {
			t.Errorf("line %d has seq %d, want %d (sequences start at 1 and increment per line)", i, b.Seq, i+1)
		}
	}
}

// gappyWorker emits beats whose sequence numbers skip ahead, simulating
// heartbeat lines lost in transit. Every cell beat jumps the sequence by
// two, so a task with N axis points loses exactly N lines.
func gappyWorker(t *testing.T) func(task Task) (*exec.Cmd, error) {
	t.Helper()
	script := filepath.Join(t.TempDir(), "gappy.sh")
	const body = `#!/bin/sh
shard=$1; shift
printf '{"ev":"hello","shard":%d,"total":%d,"seq":1}\n' "$shard" "$#"
done=0
seq=1
for p in "$@"; do
  done=$((done + 1))
  seq=$((seq + 2))
  printf '{"ev":"cell","shard":%d,"key":"cell-%d","done":%d,"total":%d,"seq":%d}\n' "$shard" "$p" "$done" "$#" "$seq"
done
printf '{"ev":"done","shard":%d,"seq":%d}\n' "$shard" "$((seq + 1))"
`
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return func(task Task) (*exec.Cmd, error) {
		args := []string{script, strconv.Itoa(task.Shard)}
		for _, p := range task.Procs {
			args = append(args, strconv.Itoa(p))
		}
		return exec.Command("/bin/sh", args...), nil
	}
}

func TestSupervisorCountsBeatGaps(t *testing.T) {
	mon := &monitorLog{}
	var log bytes.Buffer
	rep, err := Run(Spec{
		Tasks:   []Task{{Shard: 0, Procs: []int{1, 2}}},
		Start:   gappyWorker(t),
		Backoff: time.Millisecond,
		Monitor: mon.observe,
		Logger:  slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// seq goes 1, 3, 5, 6: one line missing before each of the two cell
	// beats.
	if rep.BeatGaps != 2 {
		t.Fatalf("BeatGaps = %d, want 2; log:\n%s", rep.BeatGaps, log.String())
	}
	if rep.CellsSeen != 2 || rep.Losses != 0 {
		t.Fatalf("gappy beats must not affect completion: %+v", rep)
	}
	if !strings.Contains(log.String(), "heartbeat gap") {
		t.Errorf("gap not logged:\n%s", log.String())
	}
	if !mon.has("gap 0 missed 1") {
		t.Errorf("monitor missing gap event: %v", mon.lines)
	}
}

func TestSupervisorHealthyRunHasNoBeatGaps(t *testing.T) {
	// fakeWorker emits no sequence numbers at all (Seq 0 on every beat):
	// gap tracking must stay silent rather than inventing gaps.
	rep, err := Run(Spec{
		Tasks:   Partition([]int{1, 2, 3, 4}, 2),
		Start:   fakeWorker(t),
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BeatGaps != 0 {
		t.Fatalf("BeatGaps = %d on a run without sequence numbers, want 0", rep.BeatGaps)
	}
}
