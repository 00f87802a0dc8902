package shard

import (
	"bytes"
	"fmt"
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
	w.Hello(2)
	w.Cell("a", 1, 2)
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

// gapLog is a monitorLog that also hears the BeatGapMonitor extension.
type gapLog struct{ monitorLog }

func (m *gapLog) ShardBeatGap(shard, missed int) {
	m.add(fmt.Sprintf("gap %d missed %d", shard, missed))
}

func TestSupervisorCountsBeatGaps(t *testing.T) {
	mon := &gapLog{}
	var log bytes.Buffer
	rep, err := Run(Spec{
		Tasks:   []Task{{Shard: 0, Procs: []int{1, 2}}},
		Start:   gappyWorker(t),
		Backoff: time.Millisecond,
		Monitor: mon,
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

func TestMonitorsFanOut(t *testing.T) {
	a, b := &gapLog{}, &monitorLog{}
	mon := Monitors(a, nil, b)
	mon.ShardStarted(1, 0, 3)
	mon.ShardFinished(1)
	for _, m := range []*monitorLog{&a.monitorLog, b} {
		for _, want := range []string{"started 1 attempt 0 cells 3", "finished 1"} {
			if !m.has(want) {
				t.Errorf("fanout member missing %q: %v", want, m.lines)
			}
		}
	}
	// Extension events reach only the members that implement them.
	mon.(BeatGapMonitor).ShardBeatGap(1, 2)
	if !a.has("gap 1 missed 2") {
		t.Errorf("extension-aware member missed the gap: %v", a.lines)
	}
}

func TestMonitorsCollapses(t *testing.T) {
	if Monitors() != nil {
		t.Error("Monitors() should be nil")
	}
	if Monitors(nil, nil) != nil {
		t.Error("Monitors(nil, nil) should be nil")
	}
	m := &monitorLog{}
	if got := Monitors(nil, m); got != Monitor(m) {
		t.Errorf("Monitors(nil, m) = %v, want the single monitor unwrapped", got)
	}
}
