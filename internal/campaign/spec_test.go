package campaign

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/suite"
)

func TestResolveRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   JobSpec
		reason string
	}{
		{"negative procs", JobSpec{Procs: -1}, ReasonBadSpec},
		{"negative workers", JobSpec{Workers: -2}, ReasonBadSpec},
		{"negative shards", JobSpec{Shards: -1}, ReasonBadSpec},
		{"negative retries", JobSpec{Retries: -3}, ReasonBadSpec},
		{"negative timeout", JobSpec{TimeoutSeconds: -1}, ReasonBadSpec},
		{"negative cell pause", JobSpec{CellPauseMS: -10}, ReasonBadSpec},
		{"shards without sweep", JobSpec{Shards: 2}, ReasonBadSpec},
		{"unknown system", JobSpec{System: "cray"}, ReasonUnknownSystem},
		{"unknown placement", JobSpec{Placement: "random"}, ReasonBadSpec},
		{"unknown benchmark", JobSpec{Benchmarks: []string{"linpack9000"}}, ReasonUnknownBenchmark},
		{"bad inline spec", JobSpec{Spec: &cluster.Spec{Name: "broken"}}, ReasonBadSpec},
		{"out-of-range fault plan", JobSpec{Faults: &faults.Plan{CrashProb: 5}}, ReasonBadSpec},
		{"procs above cores", JobSpec{System: "testbed", Procs: 9}, ReasonBadSpec},
	} {
		js := tc.spec
		_, err := js.Resolve()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *SpecError", tc.name, err)
			continue
		}
		if se.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, se.Reason, tc.reason)
		}
	}
	// A sweep runs its own axis, so procs does not bound it.
	if _, err := (JobSpec{System: "testbed", Sweep: true, Procs: 9}).Resolve(); err != nil {
		t.Errorf("sweep with procs above the cores rejected: %v", err)
	}
}

func TestResolveDefaults(t *testing.T) {
	js := JobSpec{}
	r, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Spec.Name != cluster.Fire().Name {
		t.Errorf("default system = %q, want fire", r.Spec.Name)
	}
	if r.System != "fire" {
		t.Errorf("System = %q, want fire", r.System)
	}
	if r.Placement != cluster.Cyclic {
		t.Errorf("default placement = %v, want cyclic", r.Placement)
	}
	if !reflect.DeepEqual(r.Benchmarks, suite.PaperOrder()) {
		t.Errorf("default benchmarks = %v, want the paper's", r.Benchmarks)
	}
	if cs := r.CampaignSpec(); cs.Retry.MaxAttempts != 1 || cs.PauseCell != nil {
		t.Errorf("default retry attempts = %d (want 1), cell pause set = %v", cs.Retry.MaxAttempts, cs.PauseCell != nil)
	}
}

func TestResolveExpandsBenchmarkKeywords(t *testing.T) {
	js := JobSpec{Benchmarks: []string{"extended"}}
	r, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Benchmarks, suite.ExtendedOrder) {
		t.Errorf("extended benchmarks = %v, want %v", r.Benchmarks, suite.ExtendedOrder)
	}
	js = JobSpec{Benchmarks: []string{"paper"}}
	r, err = js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Benchmarks, suite.PaperOrder()) {
		t.Errorf("paper benchmarks = %v, want %v", r.Benchmarks, suite.PaperOrder())
	}
}

func TestResolveError(t *testing.T) {
	js := JobSpec{System: "cray"}
	_, err := js.Resolve()
	if err == nil {
		t.Fatal("unknown system accepted")
	}
	if !strings.Contains(err.Error(), "cray") {
		t.Errorf("error %q does not name the system", err)
	}
	var se *SpecError
	if errors.As(err, &se) && se.Unwrap() == nil {
		t.Error("SpecError.Unwrap returned nil")
	}
}

func TestStatesAreExhaustiveAndOrdered(t *testing.T) {
	states := States()
	if states[0] != StateQueued || states[1] != StateRunning {
		t.Fatalf("States() = %v: lifecycle order broken", states)
	}
	terminal := 0
	for _, s := range states {
		if s.Terminal() {
			terminal++
		}
	}
	if terminal != 4 {
		t.Fatalf("%d terminal states, want 4 (done, failed, cancelled, quarantined)", terminal)
	}
	if StateQueued.Terminal() || StateRunning.Terminal() {
		t.Fatal("queued/running must not be terminal")
	}
}
