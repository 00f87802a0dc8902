// Package storage provides the I/O substrate under the IOzone-style
// benchmark: an in-memory block device, a small extent-based filesystem on
// top of it, and a discrete-event model of a shared storage backend (an
// NFS-style file server all nodes contend for).
//
// The filesystem is deliberately minimal — create/open/read/write/delete
// with first-fit extent allocation — but it is a real filesystem: data
// round-trips through the block layer, extents are allocated and freed, and
// the IOzone write test runs against it byte-for-byte.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// BlockSize is the fixed block size of the in-memory device.
const BlockSize = 4096

// Device is a block-addressable store.
type Device interface {
	// ReadBlock fills dst (len BlockSize) from block idx.
	ReadBlock(idx int64, dst []byte) error
	// WriteBlock stores src (len BlockSize) at block idx.
	WriteBlock(idx int64, src []byte) error
	// Blocks returns the device capacity in blocks.
	Blocks() int64
}

// MemDevice is a sparse in-memory block device. Unwritten blocks read as
// zeros, like a thin-provisioned volume.
type MemDevice struct {
	blocks int64
	data   map[int64][]byte
}

// NewMemDevice creates a device with the given capacity in blocks.
func NewMemDevice(blocks int64) (*MemDevice, error) {
	if blocks <= 0 {
		return nil, errors.New("storage: capacity must be positive")
	}
	return &MemDevice{blocks: blocks, data: make(map[int64][]byte)}, nil
}

// Blocks returns the capacity in blocks.
func (d *MemDevice) Blocks() int64 { return d.blocks }

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(idx int64, dst []byte) error {
	if idx < 0 || idx >= d.blocks {
		return fmt.Errorf("storage: read of block %d outside device (%d blocks)", idx, d.blocks)
	}
	if len(dst) != BlockSize {
		return fmt.Errorf("storage: read buffer %d bytes, want %d", len(dst), BlockSize)
	}
	if b, ok := d.data[idx]; ok {
		copy(dst, b)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return nil
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(idx int64, src []byte) error {
	if idx < 0 || idx >= d.blocks {
		return fmt.Errorf("storage: write of block %d outside device (%d blocks)", idx, d.blocks)
	}
	if len(src) != BlockSize {
		return fmt.Errorf("storage: write buffer %d bytes, want %d", len(src), BlockSize)
	}
	b, ok := d.data[idx]
	if !ok {
		b = make([]byte, BlockSize)
		d.data[idx] = b
	}
	copy(b, src)
	return nil
}

// extent is a run of consecutive blocks.
type extent struct {
	start, count int64
}

// file is the filesystem's per-file metadata.
type file struct {
	name    string
	size    int64
	extents []extent
}

// FS is a minimal extent-based filesystem over a Device.
type FS struct {
	dev   Device
	files map[string]*file
	free  []extent // sorted by start
}

// NewFS formats a filesystem across the whole device.
func NewFS(dev Device) (*FS, error) {
	if dev == nil {
		return nil, errors.New("storage: nil device")
	}
	return &FS{
		dev:   dev,
		files: make(map[string]*file),
		free:  []extent{{start: 0, count: dev.Blocks()}},
	}, nil
}

// Create makes an empty file. It fails if the name exists.
func (fs *FS) Create(name string) error {
	if name == "" {
		return errors.New("storage: empty file name")
	}
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("storage: %q already exists", name)
	}
	fs.files[name] = &file{name: name}
	return nil
}

// Delete removes a file and returns its blocks to the free list.
func (fs *FS) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("storage: %q does not exist", name)
	}
	fs.free = append(fs.free, f.extents...)
	sort.Slice(fs.free, func(i, j int) bool { return fs.free[i].start < fs.free[j].start })
	fs.coalesce()
	delete(fs.files, name)
	return nil
}

// coalesce merges adjacent free extents.
func (fs *FS) coalesce() {
	if len(fs.free) < 2 {
		return
	}
	out := fs.free[:1]
	for _, e := range fs.free[1:] {
		last := &out[len(out)-1]
		if last.start+last.count == e.start {
			last.count += e.count
		} else {
			out = append(out, e)
		}
	}
	fs.free = out
}

// allocate reserves n blocks first-fit and appends them to f.
func (fs *FS) allocate(f *file, n int64) error {
	for n > 0 {
		if len(fs.free) == 0 {
			return errors.New("storage: device full")
		}
		e := &fs.free[0]
		take := e.count
		if take > n {
			take = n
		}
		f.extents = append(f.extents, extent{start: e.start, count: take})
		e.start += take
		e.count -= take
		if e.count == 0 {
			fs.free = fs.free[1:]
		}
		n -= take
	}
	return nil
}

// blockOf maps a file-relative block index to a device block.
func (f *file) blockOf(idx int64) (int64, error) {
	for _, e := range f.extents {
		if idx < e.count {
			return e.start + idx, nil
		}
		idx -= e.count
	}
	return 0, fmt.Errorf("storage: block %d beyond allocation of %q", idx, f.name)
}

// WriteAt writes p to the file at offset off, extending it as needed.
func (fs *FS) WriteAt(name string, off int64, p []byte) (int, error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("storage: %q does not exist", name)
	}
	if off < 0 {
		return 0, errors.New("storage: negative offset")
	}
	end := off + int64(len(p))
	// Extend allocation to cover the write.
	needBlocks := (end + BlockSize - 1) / BlockSize
	var have int64
	for _, e := range f.extents {
		have += e.count
	}
	if needBlocks > have {
		if err := fs.allocate(f, needBlocks-have); err != nil {
			return 0, err
		}
	}
	if end > f.size {
		f.size = end
	}
	// Read-modify-write each touched block.
	written := 0
	buf := make([]byte, BlockSize)
	for written < len(p) {
		pos := off + int64(written)
		blk := pos / BlockSize
		inOff := pos % BlockSize
		dev, err := f.blockOf(blk)
		if err != nil {
			return written, err
		}
		n := BlockSize - int(inOff)
		if n > len(p)-written {
			n = len(p) - written
		}
		if int64(n) < BlockSize {
			if err := fs.dev.ReadBlock(dev, buf); err != nil {
				return written, err
			}
		}
		copy(buf[inOff:], p[written:written+n])
		if err := fs.dev.WriteBlock(dev, buf); err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// ReadAt fills p from the file at offset off. Reads past the end return
// io.EOF with the partial count, like os.File.
func (fs *FS) ReadAt(name string, off int64, p []byte) (int, error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("storage: %q does not exist", name)
	}
	if off < 0 {
		return 0, errors.New("storage: negative offset")
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := len(p)
	if off+int64(want) > f.size {
		want = int(f.size - off)
	}
	buf := make([]byte, BlockSize)
	read := 0
	for read < want {
		pos := off + int64(read)
		blk := pos / BlockSize
		inOff := pos % BlockSize
		dev, err := f.blockOf(blk)
		if err != nil {
			return read, err
		}
		if err := fs.dev.ReadBlock(dev, buf); err != nil {
			return read, err
		}
		n := BlockSize - int(inOff)
		if n > want-read {
			n = want - read
		}
		copy(p[read:read+n], buf[inOff:int(inOff)+n])
		read += n
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// Backend is the discrete-event model of a shared storage server: clients
// submit byte counts, the server processes them with fair sharing under an
// aggregate ceiling and a per-client cap. This is the mechanism behind the
// Fire cluster's early I/O saturation (DESIGN.md §4).
type Backend struct {
	res *sim.SharedResource
}

// NewBackend creates a backend on the engine with the given aggregate
// bandwidth (bytes/s) and per-client ceiling (0 = none).
func NewBackend(eng *sim.Engine, aggregateBps, perClientBps float64) (*Backend, error) {
	res, err := sim.NewSharedResource(eng, aggregateBps, perClientBps)
	if err != nil {
		return nil, err
	}
	return &Backend{res: res}, nil
}

// Reconfigure resets the backend to a fresh NewBackend state with the
// given bandwidths, keeping its job storage. The bound engine must be
// reset first; see sim.SharedResource.Reconfigure.
func (b *Backend) Reconfigure(aggregateBps, perClientBps float64) error {
	return b.res.Reconfigure(aggregateBps, perClientBps)
}

// SubmitWrite enqueues a write of n bytes; done fires at completion.
func (b *Backend) SubmitWrite(n float64, done func()) error {
	return b.res.Submit(n, done)
}
