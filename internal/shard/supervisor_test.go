package shard

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		axis []int
		n    int
		want [][]int
	}{
		{[]int{1, 2, 3, 4}, 2, [][]int{{1, 2}, {3, 4}}},
		{[]int{1, 2, 3, 4, 5}, 2, [][]int{{1, 2, 3}, {4, 5}}},
		{[]int{1, 2, 3}, 5, [][]int{{1}, {2}, {3}}},
		{[]int{1, 2, 3}, 0, [][]int{{1, 2, 3}}},
		{[]int{7}, 1, [][]int{{7}}},
		{nil, 3, nil},
	} {
		tasks := Partition(tc.axis, tc.n)
		var got [][]int
		for i, task := range tasks {
			if task.Shard != i {
				t.Errorf("Partition(%v, %d): task %d has shard index %d", tc.axis, tc.n, i, task.Shard)
			}
			got = append(got, task.Procs)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Partition(%v, %d) = %v, want %v", tc.axis, tc.n, got, tc.want)
		}
	}
}

func TestParseBeatRejectsNoise(t *testing.T) {
	for _, line := range []string{"", "not json", "{}", `{"done":3}`, "[1,2]"} {
		if _, ok := ParseBeat([]byte(line)); ok {
			t.Errorf("ParseBeat(%q) accepted a non-beat line", line)
		}
	}
	b, ok := ParseBeat([]byte(`{"ev":"cell","shard":1,"key":"k","done":2,"total":4}`))
	if !ok || b.Ev != BeatCell || b.Shard != 1 || b.Key != "k" || b.Done != 2 || b.Total != 4 {
		t.Fatalf("ParseBeat round-trip lost fields: %+v ok=%v", b, ok)
	}
}

func TestBeatWriterMute(t *testing.T) {
	var buf bytes.Buffer
	w := NewBeatWriter(&buf, 3)
	w.Hello(2)
	w.Mute()
	w.Tick()
	w.Done()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("muted writer still emitted: %q", buf.String())
	}
	if b, ok := ParseBeat([]byte(lines[0])); !ok || b.Ev != BeatHello || b.Shard != 3 {
		t.Fatalf("hello beat malformed: %q", lines[0])
	}
}

// fakeWorker writes a /bin/sh worker script and returns a Start func for
// it. The script receives the shard index then the task's axis points as
// arguments; behaviour is steered through the environment:
//
//	POISON  — kill -9 itself on reaching this axis point
//	MARKER  — die (once) with SIGKILL unless this file exists, creating it
//	EXIT    — exit with this status before doing anything
//	SLEEP   — sleep this many seconds emitting nothing (heartbeat death)
//	JUNK    — first print one stray line of this many bytes
func fakeWorker(t *testing.T, env ...string) func(task Task) (*exec.Cmd, error) {
	t.Helper()
	script := filepath.Join(t.TempDir(), "worker.sh")
	const body = `#!/bin/sh
shard=$1; shift
if [ -n "$EXIT" ]; then exit "$EXIT"; fi
if [ -n "$SLEEP" ]; then sleep "$SLEEP"; exit 0; fi
if [ -n "$MARKER" ] && [ ! -f "$MARKER" ]; then : > "$MARKER"; kill -9 $$; fi
if [ -n "$JUNK" ]; then head -c "$JUNK" /dev/zero | tr '\0' x; echo; fi
printf '{"ev":"hello","shard":%d,"total":%d}\n' "$shard" "$#"
done=0
for p in "$@"; do
  if [ -n "$POISON" ] && [ "$p" = "$POISON" ]; then kill -9 $$; fi
  done=$((done + 1))
  printf '{"ev":"cell","shard":%d,"key":"cell-%d","done":%d,"total":%d}\n' "$shard" "$p" "$done" "$#"
done
printf '{"ev":"done","shard":%d}\n' "$shard"
`
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return func(task Task) (*exec.Cmd, error) {
		args := []string{script, strconv.Itoa(task.Shard)}
		for _, p := range task.Procs {
			args = append(args, strconv.Itoa(p))
		}
		cmd := exec.Command("/bin/sh", args...)
		cmd.Env = append(os.Environ(), env...)
		return cmd, nil
	}
}

// monitorLog records lifecycle callbacks as strings, for assertions.
type monitorLog struct {
	mu    sync.Mutex
	lines []string
}

func (m *monitorLog) add(s string) {
	m.mu.Lock()
	m.lines = append(m.lines, s)
	m.mu.Unlock()
}

func (m *monitorLog) ShardStarted(shard, attempt, cells int) {
	m.add(fmt.Sprintf("started %d attempt %d cells %d", shard, attempt, cells))
}
func (m *monitorLog) ShardLost(shard int, reason string) { m.add(fmt.Sprintf("lost %d", shard)) }
func (m *monitorLog) ShardFinished(shard int)            { m.add(fmt.Sprintf("finished %d", shard)) }
func (m *monitorLog) ShardQuarantined(shard, procs int, reason string) {
	m.add(fmt.Sprintf("quarantined %d procs %d", shard, procs))
}

func (m *monitorLog) has(s string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.lines {
		if l == s {
			return true
		}
	}
	return false
}

func TestSupervisorHealthyRun(t *testing.T) {
	mon := &monitorLog{}
	rep, err := Run(Spec{
		Tasks:   Partition([]int{1, 2, 3, 4}, 2),
		Start:   fakeWorker(t),
		Backoff: 5 * time.Millisecond,
		Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 2 || rep.Losses != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("healthy run report: %+v", rep)
	}
	if rep.CellsSeen != 4 {
		t.Fatalf("CellsSeen = %d, want 4", rep.CellsSeen)
	}
	for _, want := range []string{"started 0 attempt 0 cells 2", "finished 0", "finished 1"} {
		if !mon.has(want) {
			t.Errorf("monitor missing %q: %v", want, mon.lines)
		}
	}
}

func TestSupervisorRetriesAfterSIGKILL(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "died-once")
	var log bytes.Buffer
	rep, err := Run(Spec{
		Tasks:   []Task{{Shard: 0, Procs: []int{1, 2, 3}}},
		Start:   fakeWorker(t, "MARKER="+marker),
		Backoff: 5 * time.Millisecond,
		Logger:  slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 2 || rep.Losses != 1 {
		t.Fatalf("kill-once report: %+v", rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("transient SIGKILL must not quarantine: %+v", rep.Quarantined)
	}
	if rep.CellsSeen != 3 {
		t.Fatalf("CellsSeen = %d, want 3", rep.CellsSeen)
	}
	if !strings.Contains(log.String(), "signal: killed") {
		t.Errorf("loss reason not logged:\n%s", log.String())
	}
}

func TestSupervisorQuarantinesOnRetryExhaustion(t *testing.T) {
	mon := &monitorLog{}
	rep, err := Run(Spec{
		Tasks:      []Task{{Shard: 0, Procs: []int{8}}},
		Start:      fakeWorker(t, "EXIT=3"),
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		Monitor:    mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Launches != 2 || rep.Losses != 2 {
		t.Fatalf("exhaustion report: %+v", rep)
	}
	want := []Quarantine{{Shard: 0, Procs: 8, Reason: "exit status 3"}}
	if !reflect.DeepEqual(rep.Quarantined, want) {
		t.Fatalf("Quarantined = %+v, want %+v", rep.Quarantined, want)
	}
	if !mon.has("quarantined 0 procs 8") {
		t.Errorf("monitor missing quarantine event: %v", mon.lines)
	}
}

func TestSupervisorKillsSilentWorker(t *testing.T) {
	start := time.Now()
	rep, err := Run(Spec{
		Tasks:            []Task{{Shard: 0, Procs: []int{1}}},
		Start:            fakeWorker(t, "SLEEP=30"),
		HeartbeatTimeout: 200 * time.Millisecond,
		MaxRetries:       -1,
		Backoff:          time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog did not kill the silent worker (took %v)", elapsed)
	}
	if rep.Losses != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("silent-worker report: %+v", rep)
	}
	if r := rep.Quarantined[0].Reason; !strings.Contains(r, "heartbeat") {
		t.Fatalf("loss reason %q does not mention the heartbeat", r)
	}
}

func TestSupervisorReadsBeatsAfterOverlongLine(t *testing.T) {
	// A stray line past the 1 MiB cap must be skipped, not end the
	// heartbeat stream: the beats after it still count, and the worker
	// is not mistaken for a silent one.
	rep, err := Run(Spec{
		Tasks:            []Task{{Shard: 0, Procs: []int{1, 2, 3}}},
		Start:            fakeWorker(t, fmt.Sprintf("JUNK=%d", 2*maxBeatLine)),
		HeartbeatTimeout: 5 * time.Second,
		MaxRetries:       -1,
		Backoff:          time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Losses != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("worker with a stray long line was lost: %+v", rep)
	}
	if rep.CellsSeen != 3 {
		t.Fatalf("CellsSeen = %d, want 3: beats after the long line went unread", rep.CellsSeen)
	}
}

func TestSupervisorBisectsToPoisonCell(t *testing.T) {
	// Axis point 3 always SIGKILLs its worker. With no retry budget the
	// supervisor must bisect [1 2 3 4] down to the single poison cell,
	// quarantine exactly it, and still see every other cell complete.
	var log bytes.Buffer
	rep, err := Run(Spec{
		Tasks:      []Task{{Shard: 0, Procs: []int{1, 2, 3, 4}}},
		Start:      fakeWorker(t, "POISON=3"),
		MaxRetries: -1,
		Backoff:    time.Millisecond,
		Logger:     slog.New(slog.NewTextHandler(&log, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Procs != 3 {
		t.Fatalf("bisection quarantined %+v, want exactly procs 3", rep.Quarantined)
	}
	if rep.CellsSeen != 3 {
		t.Fatalf("CellsSeen = %d, want 3 (cells 1, 2, 4)", rep.CellsSeen)
	}
	if !strings.Contains(log.String(), "bisecting") {
		t.Errorf("bisection not logged:\n%s", log.String())
	}
}

func TestSupervisorRunsBisectedSiblingsAfterPoison(t *testing.T) {
	// The half that does not hold the poison must finish even when it is
	// the right half — bisection explores both branches.
	rep, err := Run(Spec{
		Tasks:      []Task{{Shard: 0, Procs: []int{1, 2, 3, 4}}},
		Start:      fakeWorker(t, "POISON=1"),
		MaxRetries: -1,
		Backoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Procs != 1 {
		t.Fatalf("bisection quarantined %+v, want exactly procs 1", rep.Quarantined)
	}
	if rep.CellsSeen != 3 {
		t.Fatalf("CellsSeen = %d, want 3 (cells 2, 3, 4)", rep.CellsSeen)
	}
}

func TestSupervisorRejectsBrokenSpec(t *testing.T) {
	if _, err := Run(Spec{Tasks: []Task{{Procs: []int{1}}}}); err == nil {
		t.Fatal("Run accepted a Spec without Start")
	}
}
