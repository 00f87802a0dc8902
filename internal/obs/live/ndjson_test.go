package live

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// syncBuffer makes bytes.Buffer safe for the EventLog goroutine to write
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestEventLogWritesNDJSON(t *testing.T) {
	bus := NewBus()
	var buf syncBuffer
	log := StartEventLog(bus, &buf, 64)
	for i := 1; i <= 5; i++ {
		bus.Publish(Event{Seq: uint64(i), Kind: KindCellFinished, Wall: time.Unix(int64(i), 0).UTC()})
	}
	log.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5\n%s", len(lines), buf.String())
	}
	for i, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, ln)
		}
		if e.Seq != uint64(i+1) || e.Kind != KindCellFinished {
			t.Fatalf("line %d = %+v", i, e)
		}
	}
	if log.Dropped() != 0 {
		t.Fatalf("dropped = %d", log.Dropped())
	}
	log.Close() // idempotent
}

// FuzzEventNDJSON holds WriteEventNDJSON to json.Marshal byte for byte:
// the line must be json.Marshal's encoding of the event plus a newline,
// and the writer must fail exactly where json.Marshal does. The wall
// time comes from free Unix seconds, nanoseconds and a fixed zone offset,
// so years outside [0, 9999] and offsets of a day or more reach it; the
// virtual times are free, so NaN and infinities do; and the strings are
// free, so HTML characters, control bytes, U+2028 and invalid UTF-8 do.
// Each byte of kinds adds one attribute: a string, an integer, a float
// or a duration in seconds, keyed by key and valued from the others.
func FuzzEventNDJSON(f *testing.F) {
	f.Add(uint64(1), int64(1700000000), int64(123456789), 0, "cell.finished", "", "", 0, 0.0, 0.0, []byte{}, "", "", int64(0), 0.0)
	f.Add(uint64(7), int64(0), int64(0), 3600, "span", "meter", "meter.window", 64, 1.5, 1e21, []byte{0, 1, 2, 3, 4},
		"<k>&", "v \x00\xff", int64(-42), 5e-7)
	f.Add(uint64(1<<63), int64(253402300800), int64(0), -5400, "event", "a\"b", "\\", -3, -0.0, 1e-7, []byte{2}, "", "", int64(0), 0.1)
	f.Add(uint64(2), int64(-62135596801), int64(1), 86400, "attempt", "", "x", 1, math.NaN(), math.Inf(1), []byte{3}, "k", "", int64(1), math.NaN())
	f.Add(uint64(3), int64(1), int64(-1), 360000, "backoff", "t", "n", 0, 2.0, -3.0, []byte{1, 1}, "n", "", int64(9), 0.0)
	f.Fuzz(func(t *testing.T, seq uint64, sec, nsec int64, offset int, kind, track, name string, procs int,
		virtStart, virtEnd float64, kinds []byte, key, text string, n int64, x float64) {
		e := Event{
			Seq:       seq,
			Wall:      time.Unix(sec, nsec).In(time.FixedZone("", offset)),
			Kind:      Kind(kind),
			Track:     track,
			Name:      name,
			Procs:     procs,
			VirtStart: virtStart,
			VirtEnd:   virtEnd,
		}
		for _, k := range kinds {
			switch k % 4 {
			case 0:
				e.Attrs = append(e.Attrs, obs.Str(key, text))
			case 1:
				e.Attrs = append(e.Attrs, obs.Int64(key, n))
			case 2:
				e.Attrs = append(e.Attrs, obs.F64(key, x))
			default:
				e.Attrs = append(e.Attrs, obs.Secs(key, units.Seconds(x)))
			}
		}
		want, wantErr := json.Marshal(e)
		var got bytes.Buffer
		err := WriteEventNDJSON(&got, e)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("WriteEventNDJSON error %v; json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if got.Len() != 0 {
				t.Fatalf("a failed write wrote %q", got.Bytes())
			}
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteEventNDJSON wrote\n%s\njson.Marshal writes\n%s", got.Bytes(), want)
		}
	})
}
