package shard

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadBeats feeds an arbitrary stream, one byte per read, to the
// heartbeat reader with an arbitrary line cap, and checks it against a
// whole-buffer model: the reader delivers exactly the lines within the
// cap that ParseBeat accepts, in order, and the lines it reports missed
// add up to the sum of the forward jumps in their sequence numbers (each
// jump capped at math.MaxInt). The committed corpus
// (testdata/fuzz/FuzzReadBeats) holds valid beats, junk, an over-long
// line, a sequence gap, unsequenced beats and CRLF line ends.
func FuzzReadBeats(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, maxLine uint16) {
		var got []Beat
		var gotMissed uint64
		readBeats(iotest.OneByteReader(bytes.NewReader(stream)), int(maxLine), func(b Beat, missed int) {
			if missed < 0 {
				t.Fatalf("negative missed count %d before %+v", missed, b)
			}
			got = append(got, b)
			gotMissed += uint64(missed)
		})

		var want []Beat
		var wantMissed, last uint64
		for _, line := range bytes.Split(stream, []byte("\n")) {
			if len(line) > int(maxLine) {
				continue
			}
			b, ok := ParseBeat(bytes.TrimSuffix(line, []byte("\r")))
			if !ok {
				continue
			}
			want = append(want, b)
			if b.Seq == 0 {
				continue
			}
			if last > 0 && b.Seq > last+1 {
				wantMissed += min(b.Seq-last-1, math.MaxInt)
			}
			last = max(last, b.Seq)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("delivered %+v, want %+v", got, want)
		}
		if gotMissed != wantMissed {
			t.Fatalf("reported %d missed lines, sequence jumps add up to %d", gotMissed, wantMissed)
		}
	})
}
