package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/shard"
)

// TestWorkerSpecRoundTrip: the assignment a worker reads back off its
// stdin is the one the supervisor wrote, inline machine spec and fault
// plan included, with the cell pause at full precision.
func TestWorkerSpecRoundTrip(t *testing.T) {
	w := WorkerSpec{
		Task:    shard.Task{Shard: 1, Procs: []int{4, 8}},
		Segment: "seg.journal",
		Job: JobSpec{
			Spec: cluster.Testbed(), Sweep: true, Shards: 2, Placement: "block",
			Benchmarks: []string{"HPL", "STREAM"}, Retries: 3, TimeoutSeconds: 9.5,
			Faults: &faults.Plan{Seed: 7, CrashProb: 0.2, Meter: &faults.Meter{DropRate: 0.05}},
		},
		CellPause: 1500 * time.Microsecond,
		Traced:    true,
		Tick:      2 * time.Second,
	}
	doc, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"task":{"shard":1,"procs":[4,8]}`, `"segment":`, `"job":{`, `"cell_pause":1500000`, `"traced":true`, `"tick":`} {
		if !bytes.Contains(doc, []byte(key)) {
			t.Errorf("assignment lacks %s:\n%s", key, doc)
		}
	}
	var back WorkerSpec
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, w) {
		t.Fatalf("round trip changed the assignment:\n got  %+v\n want %+v", back, w)
	}
}

// badWorkerSpecs are assignments a shard worker must refuse, each with
// a word its error must mention; seg is the journal segment they name.
func badWorkerSpecs(seg string) []struct{ name, in, want string } {
	return []struct{ name, in, want string }{
		{"empty", ``, "assignment"},
		{"malformed", `{"task":{"shard":0,"procs":[1`, "assignment"},
		{"not an object", `[1,2]`, "assignment"},
		{"no procs", `{"task":{"shard":0},"segment":"` + seg + `","job":{"system":"testbed","sweep":true}}`, "no process counts"},
		{"zero procs", `{"task":{"shard":0,"procs":[0]},"segment":"` + seg + `","job":{"system":"testbed","sweep":true}}`, "not a process count"},
		{"no segment", `{"task":{"shard":0,"procs":[1]},"job":{"system":"testbed","sweep":true}}`, "segment"},
		{"unknown system", `{"task":{"shard":0,"procs":[1]},"segment":"` + seg + `","job":{"system":"cray","sweep":true}}`, "cray"},
		{"procs beyond the machine", `{"task":{"shard":0,"procs":[4,9]},"segment":"` + seg + `","job":{"system":"testbed","sweep":true}}`, "exceeds the 8 cores"},
	}
}

// TestRunShardWorkerRefusesBadInput: the assignment comes from outside
// the process, so a bad one is an error before the worker heartbeats or
// touches a segment, never a panic.
func TestRunShardWorkerRefusesBadInput(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg")
	for _, tc := range badWorkerSpecs(seg) {
		var out bytes.Buffer
		err := RunShardWorker(strings.NewReader(tc.in), &out)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: worker heartbeat before refusing: %q", tc.name, out.String())
		}
	}
	var se *SpecError
	err := RunShardWorker(strings.NewReader(`{"task":{"shard":0,"procs":[1]},"segment":"`+seg+`","job":{"system":"cray"}}`), &bytes.Buffer{})
	if !errors.As(err, &se) || se.Reason != ReasonUnknownSystem {
		t.Errorf("unknown system: %v, want the Resolve refusal", err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Errorf("a refused assignment created its segment")
	}
}
