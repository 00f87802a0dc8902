package live

import (
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// WriteEventNDJSON appends e to w as one JSON line (newline-delimited
// JSON, one event per line): the bytes json.Marshal writes for e, then
// a newline. It fails where json.Marshal does, on a NaN or infinite
// virtual time or a wall time RFC 3339 cannot express, and then writes
// nothing.
func WriteEventNDJSON(w io.Writer, e Event) error {
	// Room for the fixed fields and every string unescaped, and for a
	// number's text where an attribute holds one.
	size := 160 + len(e.Kind) + len(e.Track) + len(e.Name)
	for _, a := range e.Attrs {
		size += 40 + len(a.Key) + len(a.Value)
	}
	b, err := appendEventJSON(make([]byte, 0, size), e)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// appendEventJSON appends e as json.Marshal encodes it: the fields in
// declaration order, the omitempty ones only when set, strings with
// HTML escaping, and each attribute as {"k":…,"v":…}, as Attr's
// MarshalJSON writes it and json.Marshal then escapes it.
func appendEventJSON(b []byte, e Event) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"seq":`...), e.Seq, 10)
	b, err := appendWall(append(b, `,"wall":`...), e.Wall)
	if err != nil {
		return nil, err
	}
	b = obs.AppendJSONString(append(b, `,"kind":`...), string(e.Kind), true)
	if e.Track != "" {
		b = obs.AppendJSONString(append(b, `,"track":`...), e.Track, true)
	}
	if e.Name != "" {
		b = obs.AppendJSONString(append(b, `,"name":`...), e.Name, true)
	}
	if e.Procs != 0 {
		b = strconv.AppendInt(append(b, `,"procs":`...), int64(e.Procs), 10)
	}
	if b, err = appendFloatField(b, `,"virt_start":`, e.VirtStart); err != nil {
		return nil, err
	}
	if b, err = appendFloatField(b, `,"virt_end":`, e.VirtEnd); err != nil {
		return nil, err
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = obs.AppendJSONString(append(b, `{"k":`...), a.Key, true)
			b = append(a.AppendValue(append(b, `,"v":`...), true), '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendFloatField appends an omitempty float64 field, key included:
// nothing when v is zero, and the error json.Marshal returns when v is
// NaN or infinite.
func appendFloatField(b []byte, key string, v float64) ([]byte, error) {
	if v == 0 {
		return b, nil
	}
	b, ok := obs.AppendJSONFloat(append(b, key...), v)
	if !ok {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	return b, nil
}

// appendWall appends t, quoted, as time.Time's MarshalJSON writes it:
// RFC 3339 with nanoseconds. Like MarshalJSON it refuses a year outside
// [0, 9999] or a zone offset of 24 hours or more, which RFC 3339 cannot
// express.
func appendWall(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	s := b[n0:]
	if s[len("9999")] != '-' {
		return nil, errors.New("live: event wall time: year outside of range [0,9999]")
	}
	// A zone other than Z ends in ±hh:mm; an offset of 100 hours or
	// more pushes a digit where the sign belongs.
	if z := s[len(s)-len("Z07:00"):]; s[len(s)-1] != 'Z' && ('0' <= z[0] && z[0] <= '9' || 10*(z[1]-'0')+(z[2]-'0') >= 24) {
		return nil, errors.New("live: event wall time: timezone hour outside of range [0,23]")
	}
	return append(b, '"'), nil
}

// EventLog drains a bus subscription into an NDJSON stream on its own
// goroutine — the persistent event log behind greenbench -events. A slow
// writer costs dropped events (counted on the subscription), never a
// stalled sweep.
type EventLog struct {
	sub  *Subscription
	done chan struct{}
	once sync.Once
}

// StartEventLog subscribes to bus with the given buffer and streams every
// received event to w as NDJSON until Close.
func StartEventLog(bus *Bus, w io.Writer, buffer int) *EventLog {
	l := &EventLog{sub: bus.Subscribe(buffer), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for {
			select {
			case e := <-l.sub.Events():
				if WriteEventNDJSON(w, e) != nil {
					return
				}
			case <-l.sub.Done():
				// Detached: drain whatever is still buffered, then stop.
				for {
					select {
					case e := <-l.sub.Events():
						if WriteEventNDJSON(w, e) != nil {
							return
						}
					default:
						return
					}
				}
			}
		}
	}()
	return l
}

// Dropped returns how many events the log lost to a full buffer.
func (l *EventLog) Dropped() uint64 { return l.sub.Dropped() }

// Close detaches the log from the bus, waits for buffered events to be
// flushed, and returns.
func (l *EventLog) Close() {
	l.once.Do(func() {
		l.sub.Close()
		<-l.done
	})
}
