package storage

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newFS(t *testing.T, blocks int64) *FS {
	t.Helper()
	dev, err := NewMemDevice(blocks)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFS(dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMemDeviceBounds(t *testing.T) {
	dev, err := NewMemDevice(4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(4, buf); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := dev.WriteBlock(-1, buf); err == nil {
		t.Error("negative write accepted")
	}
	if err := dev.ReadBlock(0, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := NewMemDevice(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestMemDeviceZeroFill(t *testing.T) {
	dev, _ := NewMemDevice(2)
	buf := make([]byte, BlockSize)
	buf[0] = 0xFF
	if err := dev.ReadBlock(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Error("unwritten block not zero-filled")
	}
}

func TestMemDeviceRoundTrip(t *testing.T) {
	dev, _ := NewMemDevice(8)
	src := make([]byte, BlockSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := dev.WriteBlock(3, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := dev.ReadBlock(3, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("block did not round-trip")
	}
}

func TestFSCreateDelete(t *testing.T) {
	fs := newFS(t, 16)
	if err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("a"); err == nil {
		t.Error("duplicate create accepted")
	}
	if err := fs.Create(""); err == nil {
		t.Error("empty name accepted")
	}
	if err := fs.Delete("missing"); err == nil {
		t.Error("delete of missing file accepted")
	}
	if len(fs.files) != 1 || fs.files["a"] == nil {
		t.Errorf("files = %v", fs.files)
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	var free int64
	for _, e := range fs.free {
		free += e.count
	}
	if free != 16 {
		t.Errorf("free = %d after delete", free)
	}
}

func TestFSWriteReadRoundTrip(t *testing.T) {
	fs := newFS(t, 64)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*BlockSize+123) // unaligned length
	for i := range data {
		data[i] = byte(i % 251)
	}
	n, err := fs.WriteAt("f", 0, data)
	if err != nil || n != len(data) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if sz := fs.files["f"].size; sz != int64(len(data)) {
		t.Errorf("size = %d", sz)
	}
	got := make([]byte, len(data))
	n, err = fs.ReadAt("f", 0, got)
	if err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data did not round-trip")
	}
}

func TestFSUnalignedOffsets(t *testing.T) {
	fs := newFS(t, 64)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	// Write a base pattern, then overwrite a window straddling blocks.
	base := bytes.Repeat([]byte{0xAA}, 2*BlockSize)
	if _, err := fs.WriteAt("f", 0, base); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0x55}, 100)
	if _, err := fs.WriteAt("f", int64(BlockSize-50), patch); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*BlockSize)
	if _, err := fs.ReadAt("f", 0, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*BlockSize; i++ {
		want := byte(0xAA)
		if i >= BlockSize-50 && i < BlockSize+50 {
			want = 0x55
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestFSReadPastEOF(t *testing.T) {
	fs := newFS(t, 16)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("f", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := fs.ReadAt("f", 0, buf)
	if err != io.EOF || n != 5 {
		t.Errorf("partial read = %d, %v", n, err)
	}
	if string(buf[:n]) != "hello" {
		t.Errorf("data = %q", buf[:n])
	}
	if _, err := fs.ReadAt("f", 100, buf); err != io.EOF {
		t.Errorf("read past EOF err = %v", err)
	}
}

func TestFSDeviceFull(t *testing.T) {
	fs := newFS(t, 4)
	if err := fs.Create("f"); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 5*BlockSize)
	if _, err := fs.WriteAt("f", 0, big); err == nil {
		t.Error("overfull write accepted")
	}
}

func TestFSFragmentationAndReuse(t *testing.T) {
	fs := newFS(t, 8)
	for _, n := range []string{"a", "b", "c"} {
		if err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(n, 0, make([]byte, 2*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Free the middle file; its extent must be reusable.
	if err := fs.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("d"); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 2*BlockSize)
	if _, err := fs.WriteAt("d", 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := fs.ReadAt("d", 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("reused extent corrupted data")
	}
	// Files a and c must be intact (all zero).
	chk := make([]byte, 2*BlockSize)
	if _, err := fs.ReadAt("a", 0, chk); err != nil {
		t.Fatal(err)
	}
	for _, b := range chk {
		if b != 0 {
			t.Fatal("file a corrupted by reuse")
		}
	}
}

func TestFSPropertyRoundTrip(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := newFS(t, 1024)
		if err := fs.Create("f"); err != nil {
			return false
		}
		var ref []byte
		off := int64(0)
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			if len(c) > 8192 {
				c = c[:8192]
			}
			if _, err := fs.WriteAt("f", off, c); err != nil {
				return false
			}
			ref = append(ref, c...)
			off += int64(len(c))
		}
		if len(ref) == 0 {
			return true
		}
		got := make([]byte, len(ref))
		if _, err := fs.ReadAt("f", 0, got); err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBackendSaturation(t *testing.T) {
	eng := sim.NewEngine(0)
	// 400 MB/s aggregate, 150 MB/s per client: 3+ clients saturate.
	b, err := NewBackend(eng, 400e6, 150e6)
	if err != nil {
		t.Fatal(err)
	}
	const fileBytes = 400e6
	var done [4]float64
	for i := 0; i < 4; i++ {
		i := i
		if err := b.SubmitWrite(fileBytes, func() { done[i] = float64(eng.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// 4 clients × 400 MB through a 400 MB/s pipe: exactly 4 s makespan.
	for i, d := range done {
		if math.Abs(d-4) > 1e-6 {
			t.Errorf("client %d finished at %v, want 4", i, d)
		}
	}
}

func TestBackendPerClientCap(t *testing.T) {
	eng := sim.NewEngine(0)
	b, _ := NewBackend(eng, 400e6, 150e6)
	var doneAt float64
	if err := b.SubmitWrite(300e6, func() { doneAt = float64(eng.Now()) }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	// A single client is capped at 150 MB/s: 2 s for 300 MB.
	if math.Abs(doneAt-2) > 1e-6 {
		t.Errorf("single client done at %v, want 2", doneAt)
	}
}

func BenchmarkFSWrite(b *testing.B) {
	dev, _ := NewMemDevice(1 << 18)
	fs, _ := NewFS(dev)
	if err := fs.Create("bench"); err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 1<<20)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%256) << 20
		if _, err := fs.WriteAt("bench", off, rec); err != nil {
			b.Fatal(err)
		}
	}
}
