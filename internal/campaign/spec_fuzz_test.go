package campaign

import (
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/suite"
)

// FuzzJobSpec decodes an arbitrary POST /jobs body and resolves it, the
// way the server admits a job. Resolution must never panic; a resolved
// campaign must name a machine and a benchmark list and carry a retry
// policy the suite accepts, with at least one attempt, and a campaign
// clock that stays finite in trace microseconds even if every attempt of
// every cell fails; and every rejection must be a *SpecError that
// writeSpecError answers with a 4xx, never a 500. The committed corpus
// (testdata/fuzz/FuzzJobSpec) holds the out-of-range fault plans, the
// over-sized single point, an inline machine spec, keyword benchmark
// lists, a huge worker count, a retry budget whose attempt count
// overflows and a faulty sweep whose campaign clock would.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var js JobSpec
		if json.Unmarshal(body, &js) != nil {
			return // the server answers bad_json before resolving
		}
		r, err := js.Resolve()
		if err == nil {
			if r.Spec == nil || len(r.Benchmarks) == 0 {
				t.Fatalf("resolved %s to an unrunnable campaign: %+v", body, r)
			}
			p := r.CampaignSpec().Retry
			if p.MaxAttempts < 1 || p.Validate() != nil {
				t.Fatalf("resolved %s to retry policy %+v the suite cannot run", body, p)
			}
			cells := 1
			if js.Sweep {
				cells = len(suite.DefaultAxis(r.Spec))
			}
			clock := float64(p.WorstCase()) * float64(cells) * float64(len(r.Benchmarks)) * 1e6
			if math.IsInf(clock, 0) || math.IsNaN(clock) {
				t.Fatalf("resolved %s to a campaign whose worst-case clock is %v µs", body, clock)
			}
			return
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("rejection %v of %s is not a *SpecError", err, body)
		}
		rec := httptest.NewRecorder()
		writeSpecError(rec, err)
		if rec.Code < 400 || rec.Code > 499 {
			t.Fatalf("rejection %v of %s answered %d, want 4xx", err, body, rec.Code)
		}
	})
}
