package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// The heartbeat protocol: a shard worker writes one JSON object per line
// (NDJSON) on its stdout, and the supervisor treats every parseable line
// as proof of life. Cell beats also name the checkpointed cell. Lines
// that do not parse are ignored — a worker's stray prints cannot confuse
// the supervisor, only starve it of beats.

// Beat event kinds.
const (
	BeatHello = "hello" // worker is up
	BeatCell  = "cell"  // one cell checkpointed: its key
	BeatTick  = "beat"  // periodic liveness while a long cell runs
	BeatDone  = "done"  // worker finished its task cleanly
)

// Beat is one heartbeat line. Seq is a monotonic per-writer sequence
// number starting at 1: the supervisor uses it to detect silently
// dropped NDJSON lines (a gap in the sequence). Zero means the line
// carries no sequence, as hand-written beats may not, and gap tracking
// skips it.
type Beat struct {
	Ev    string `json:"ev"`
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq,omitempty"`
	Key   string `json:"key,omitempty"`
}

// ParseBeat decodes one NDJSON line; ok is false for anything that is
// not a beat (including arbitrary non-JSON output).
func ParseBeat(line []byte) (Beat, bool) {
	var b Beat
	if err := json.Unmarshal(line, &b); err != nil || b.Ev == "" {
		return Beat{}, false
	}
	return b, true
}

// maxBeatLine caps one heartbeat line. Beats are a few dozen bytes;
// anything longer is a worker's stray output, and is skipped whole.
const maxBeatLine = 1 << 20

// readBeats reads the heartbeat stream until r ends or fails, calling
// beat for every line ParseBeat accepts, in order. missed is how many
// sequenced lines were lost just before this one: a beat arriving with
// seq > last+1 means the lines in between never came (unsequenced
// beats, seq 0, are exempt from the accounting; a jump too large for an
// int reports math.MaxInt). Lines longer than maxLine bytes are skipped
// without being buffered whole, so no stray output can stop the reader
// from seeing the beats after it. A trailing CR is dropped, as
// bufio.ScanLines does.
func readBeats(r io.Reader, maxLine int, beat func(b Beat, missed int)) {
	br := bufio.NewReaderSize(r, 64*1024)
	var line []byte
	long := false
	var lastSeq uint64
	for {
		chunk, err := br.ReadSlice('\n')
		if !long {
			line = append(line, chunk...)
			if len(bytes.TrimSuffix(line, []byte("\n"))) > maxLine {
				long, line = true, line[:0]
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if !long {
			body := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
			if b, ok := ParseBeat(body); ok {
				missed := 0
				if b.Seq > 0 {
					if lastSeq > 0 && b.Seq > lastSeq+1 {
						missed = int(min(b.Seq-lastSeq-1, math.MaxInt))
					}
					lastSeq = max(lastSeq, b.Seq)
				}
				beat(b, missed)
			}
		}
		line, long = line[:0], false
		if err != nil {
			return
		}
	}
}

// BeatWriter emits heartbeat lines for one shard worker. Safe for
// concurrent use (the periodic ticker and the cell checkpoints race by
// design); each beat is one atomic Write so lines never interleave.
type BeatWriter struct {
	mu    sync.Mutex
	w     io.Writer
	shard int
	seq   uint64
	muted bool
}

// NewBeatWriter returns a writer stamping every beat with the shard
// index.
func NewBeatWriter(w io.Writer, shard int) *BeatWriter {
	return &BeatWriter{w: w, shard: shard}
}

// Hello announces the worker is up.
func (b *BeatWriter) Hello() { b.emit(Beat{Ev: BeatHello}) }

// Cell announces one checkpointed cell.
func (b *BeatWriter) Cell(key string) { b.emit(Beat{Ev: BeatCell, Key: key}) }

// Tick is the periodic liveness beat.
func (b *BeatWriter) Tick() { b.emit(Beat{Ev: BeatTick}) }

// Done announces clean completion.
func (b *BeatWriter) Done() { b.emit(Beat{Ev: BeatDone}) }

// Mute permanently silences the writer — the process-fault hook's "hang"
// mode uses it to simulate a worker that is alive but stuck, the failure
// the supervisor's heartbeat timeout exists to catch.
func (b *BeatWriter) Mute() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.muted = true
	b.mu.Unlock()
}

func (b *BeatWriter) emit(beat Beat) {
	if b == nil {
		return
	}
	beat.Shard = b.shard
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.muted {
		return
	}
	// The sequence is stamped under the same lock that orders the
	// writes, so the wire order and the sequence order always agree.
	b.seq++
	beat.Seq = b.seq
	line, err := json.Marshal(beat)
	if err != nil {
		return
	}
	b.w.Write(append(line, '\n'))
}

// StartTicks emits a Tick every interval until the returned stop
// function is called — the liveness signal that keeps a worker's
// heartbeat fresh while a long cell simulates.
func StartTicks(b *BeatWriter, every time.Duration) (stop func()) {
	if b == nil || every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				b.Tick()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
