package campaign

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
)

// FuzzJobSpec decodes an arbitrary POST /jobs body and resolves it, the
// way the server admits a job. Resolution must never panic; a resolved
// campaign must name a machine and a benchmark list; and every rejection
// must be a *SpecError that writeSpecError answers with a 4xx, never a
// 500. The committed corpus (testdata/fuzz/FuzzJobSpec) holds the
// out-of-range fault plans, the over-sized single point, an inline
// machine spec, keyword benchmark lists and a huge worker count.
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
