// Package mpirt is a miniature message-passing runtime in the style of MPI,
// built on goroutines and channels. It provides exactly the surface the
// distributed HPL implementation needs: SPMD launch, ranked communicators,
// tagged point-to-point messages, the usual collectives, communicator
// splitting (for the row/column communicators of a 2D process grid), and
// traffic accounting so benchmark drivers can report communication volume.
//
// Semantics follow MPI where it matters for correctness: messages between a
// pair of ranks with the same tag arrive in order; collectives must be
// called by every member of a communicator in the same order (SPMD
// discipline); payload slices are copied on send, so the sender may reuse
// its buffer immediately.
package mpirt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches any tag in Recv.
const AnyTag = -1

// Reserved internal tag space for collectives; user tags must be >= 0.
const collectiveTagBase = -1000

type message struct {
	commID uint64
	src    int // rank within the communicator
	tag    int
	data   []float64
}

// World owns the mailboxes of an SPMD run.
type World struct {
	size    int
	inbox   []chan message
	pending [][]message  // per world rank, unmatched messages; owned by that rank's goroutine
	bytes   atomic.Int64 // total payload bytes sent, all communicators
	chanCap int

	// Crash/abort path: when a rank dies (error return or panic), the
	// world is poisoned so peers blocked in Recv or a full Send unblock
	// with ErrAborted instead of deadlocking.
	done      chan struct{}
	abortOnce sync.Once
	abortInfo atomic.Pointer[abortCause]
}

type abortCause struct {
	rank int
	err  error
}

// ErrAborted is returned (wrapped) by communication calls whose world was
// poisoned by a crashed rank.
var ErrAborted = errors.New("mpirt: world aborted")

// abort poisons the world. The first caller wins; later aborts are no-ops.
func (w *World) abort(rank int, cause error) {
	w.abortOnce.Do(func() {
		w.abortInfo.Store(&abortCause{rank: rank, err: cause})
		close(w.done)
	})
}

// abortErr describes why the world died, wrapping ErrAborted.
func (w *World) abortErr() error {
	if info := w.abortInfo.Load(); info != nil {
		return fmt.Errorf("%w by rank %d: %v", ErrAborted, info.rank, info.err)
	}
	return ErrAborted
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	world   *World
	id      uint64
	rank    int
	members []int  // communicator rank -> world rank
	collSeq int    // per-rank collective sequence number (advances in SPMD lockstep)
	split   uint64 // per-rank split counter for deriving child communicator ids
}

// Errs aggregates per-rank errors from an SPMD run.
type Errs struct {
	ByRank map[int]error
}

func (e *Errs) Error() string {
	return fmt.Sprintf("mpirt: %d rank(s) failed: %v", len(e.ByRank), e.ByRank)
}

// Run launches fn on n ranks and waits for all of them. The returned error
// is nil when every rank succeeds, otherwise an *Errs collecting each
// failure. Panics in a rank are converted to errors so one bad rank cannot
// take down the test process.
func Run(n int, fn func(c *Comm) error) error {
	if n <= 0 {
		return errors.New("mpirt: world size must be positive")
	}
	w := &World{size: n, inbox: make([]chan message, n), pending: make([][]message, n),
		chanCap: 4 * n, done: make(chan struct{})}
	if w.chanCap < 64 {
		w.chanCap = 64
	}
	for i := range w.inbox {
		w.inbox[i] = make(chan message, w.chanCap)
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpirt: rank %d panicked: %v", r, p)
				}
				// A dead rank can never again feed its peers: poison the
				// world so anyone blocked on it errors out instead of
				// deadlocking the whole run.
				if errs[r] != nil {
					w.abort(r, errs[r])
				}
			}()
			c := &Comm{world: w, id: 1, rank: r, members: members}
			errs[r] = fn(c)
		}()
	}
	wg.Wait()
	failed := map[int]error{}
	for r, err := range errs {
		if err != nil {
			failed[r] = err
		}
	}
	if len(failed) > 0 {
		return &Errs{ByRank: failed}
	}
	return nil
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// BytesSent returns the total payload bytes sent across the whole world so
// far (all communicators). Benchmark drivers read this to report
// communication volume.
func (c *Comm) BytesSent() int64 { return c.world.bytes.Load() }

// Send delivers a copy of data to dst (communicator rank) under tag.
// Tags must be non-negative; negative tags are reserved for collectives.
func (c *Comm) Send(dst, tag int, data []float64) error {
	if tag < 0 {
		return fmt.Errorf("mpirt: user tag %d is negative", tag)
	}
	return c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= len(c.members) {
		return fmt.Errorf("mpirt: send to invalid rank %d of %d", dst, len(c.members))
	}
	cp := make([]float64, len(data))
	copy(cp, data)
	c.world.bytes.Add(int64(8 * len(data)))
	m := message{commID: c.id, src: c.rank, tag: tag, data: cp}
	box := c.world.inbox[c.members[dst]]
	// Prefer delivery while there is buffer space; only a blocked send
	// consults the abort channel, so healthy runs are unaffected.
	select {
	case box <- m:
		return nil
	default:
	}
	select {
	case box <- m:
		return nil
	case <-c.world.done:
		return c.world.abortErr()
	}
}

// Recv blocks until a message matching (src, tag) on this communicator
// arrives and returns its payload and envelope. src may be AnySource and
// tag may be AnyTag.
func (c *Comm) Recv(src, tag int) (data []float64, fromRank, gotTag int, err error) {
	if src != AnySource && (src < 0 || src >= len(c.members)) {
		return nil, 0, 0, fmt.Errorf("mpirt: recv from invalid rank %d", src)
	}
	match := func(m message) bool {
		if m.commID != c.id {
			return false
		}
		// Collective traffic travels on reserved negative tags; AnyTag is
		// a user-level wildcard and must never consume it (a stray token
		// from an aborted collective would otherwise satisfy a Recv).
		if tag == AnyTag && m.tag < 0 {
			return false
		}
		if src != AnySource && m.src != src {
			return false
		}
		if tag != AnyTag && m.tag != tag {
			return false
		}
		return true
	}
	// The pending stash is shared across all communicators of this world
	// rank: a message for communicator A received while blocked in B's Recv
	// must remain visible to A.
	wr := c.members[c.rank]
	stash := c.world.pending[wr]
	for i, m := range stash {
		if match(m) {
			c.world.pending[wr] = append(stash[:i], stash[i+1:]...)
			return m.data, m.src, m.tag, nil
		}
	}
	for {
		var m message
		// Drain messages already delivered before consulting the abort
		// channel, so an abort racing with in-flight traffic does not eat
		// receivable messages.
		select {
		case m = <-c.world.inbox[wr]:
		default:
			select {
			case m = <-c.world.inbox[wr]:
			case <-c.world.done:
				return nil, 0, 0, c.world.abortErr()
			}
		}
		if match(m) {
			return m.data, m.src, m.tag, nil
		}
		c.world.pending[wr] = append(c.world.pending[wr], m)
	}
}

// recvExact is Recv with required src and tag, returning just the data.
func (c *Comm) recvExact(src, tag int) ([]float64, error) {
	data, _, _, err := c.Recv(src, tag)
	return data, err
}

// nextCollTag reserves a fresh tag for one collective operation. All ranks
// call collectives in the same order, so their counters agree.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return collectiveTagBase - c.collSeq
}

// Barrier blocks until every rank of the communicator has entered it.
// Implementation: gather-to-zero then broadcast, via the internal tag space.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	n := len(c.members)
	if n == 1 {
		return nil
	}
	if c.rank == 0 {
		for i := 1; i < n; i++ {
			if _, _, _, err := c.Recv(AnySource, tag); err != nil {
				return err
			}
		}
		for i := 1; i < n; i++ {
			if err := c.send(i, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tag, nil); err != nil {
		return err
	}
	_, err := c.recvExact(0, tag)
	return err
}

// Bcast distributes buf from root to every rank. On non-root ranks buf is
// overwritten; its length must match the root's. A binomial tree keeps the
// critical path logarithmic, which matters for the HPL panel broadcasts.
func (c *Comm) Bcast(root int, buf []float64) error {
	n := len(c.members)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: bcast root %d invalid", root)
	}
	tag := c.nextCollTag()
	if n == 1 {
		return nil
	}
	// Rotate ranks so the root is virtual rank 0.
	vr := (c.rank - root + n) % n
	// Receive from parent (unless root).
	if vr != 0 {
		parent := ((vr - 1) / 2)
		src := (parent + root) % n
		data, err := c.recvExact(src, tag)
		if err != nil {
			return err
		}
		if len(data) != len(buf) {
			return fmt.Errorf("mpirt: bcast length mismatch: have %d, want %d", len(buf), len(data))
		}
		copy(buf, data)
	}
	// Forward to children.
	for _, child := range []int{2*vr + 1, 2*vr + 2} {
		if child < n {
			dst := (child + root) % n
			if err := c.send(dst, tag, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func applyOp(op Op, dst, src []float64) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// Reduce combines in from every rank with op; the result lands in out on
// root only. len(out) must equal len(in) on root.
func (c *Comm) Reduce(root int, op Op, in, out []float64) error {
	n := len(c.members)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: reduce root %d invalid", root)
	}
	tag := c.nextCollTag()
	if c.rank == root {
		if len(out) != len(in) {
			return fmt.Errorf("mpirt: reduce buffer mismatch: %d vs %d", len(out), len(in))
		}
		copy(out, in)
		for i := 0; i < n-1; i++ {
			data, _, _, err := c.Recv(AnySource, tag)
			if err != nil {
				return err
			}
			if len(data) != len(out) {
				return fmt.Errorf("mpirt: reduce contribution length %d, want %d", len(data), len(out))
			}
			applyOp(op, out, data)
		}
		return nil
	}
	return c.send(root, tag, in)
}

// Gather concatenates equal-length contributions on root: out receives
// rank i's in at offset i*len(in). out may be nil on non-root ranks.
func (c *Comm) Gather(root int, in, out []float64) error {
	n := len(c.members)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: gather root %d invalid", root)
	}
	tag := c.nextCollTag()
	if c.rank == root {
		if len(out) != n*len(in) {
			return fmt.Errorf("mpirt: gather buffer %d, want %d", len(out), n*len(in))
		}
		copy(out[c.rank*len(in):], in)
		for i := 0; i < n-1; i++ {
			data, src, _, err := c.Recv(AnySource, tag)
			if err != nil {
				return err
			}
			if len(data) != len(in) {
				return fmt.Errorf("mpirt: gather contribution length %d, want %d", len(data), len(in))
			}
			copy(out[src*len(in):], data)
		}
		return nil
	}
	return c.send(root, tag, in)
}

// Allgather is Gather to rank 0 followed by Bcast of the concatenation.
func (c *Comm) Allgather(in, out []float64) error {
	n := len(c.members)
	if len(out) != n*len(in) {
		return fmt.Errorf("mpirt: allgather buffer %d, want %d", len(out), n*len(in))
	}
	if c.rank == 0 {
		if err := c.Gather(0, in, out); err != nil {
			return err
		}
	} else {
		if err := c.Gather(0, in, nil); err != nil {
			return err
		}
	}
	return c.Bcast(0, out)
}

// Split partitions the communicator: ranks passing the same color form a new
// communicator, ordered by (key, parent rank). Every member of the parent
// must call Split. This is how the HPL grid derives its row and column
// communicators.
func (c *Comm) Split(color, key int) (*Comm, error) {
	n := len(c.members)
	// Exchange (color, key) with everyone via Allgather.
	in := []float64{float64(color), float64(key)}
	out := make([]float64, 2*n)
	if err := c.Allgather(in, out); err != nil {
		return nil, err
	}
	type entry struct{ color, key, rank int }
	var mine []entry
	for r := 0; r < n; r++ {
		e := entry{color: int(out[2*r]), key: int(out[2*r+1]), rank: r}
		if e.color == color {
			mine = append(mine, e)
		}
	}
	// Stable order by (key, rank).
	for i := 1; i < len(mine); i++ {
		for j := i; j > 0; j-- {
			a, b := mine[j-1], mine[j]
			if b.key < a.key || (b.key == a.key && b.rank < a.rank) {
				mine[j-1], mine[j] = b, a
			} else {
				break
			}
		}
	}
	members := make([]int, len(mine))
	newRank := -1
	for i, e := range mine {
		members[i] = c.members[e.rank]
		if e.rank == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, errors.New("mpirt: split lost calling rank")
	}
	c.split++
	// Child id must be identical for all members and unique per split/color:
	// derive it from the parent id, the per-rank split counter (identical in
	// SPMD lockstep) and the color.
	id := c.id*1_000_003 + c.split*101 + uint64(color+1)
	return &Comm{world: c.world, id: id, rank: newRank, members: members}, nil
}

// Alltoall performs the complete exchange: rank i's in[j·k:(j+1)·k] lands in
// rank j's out[i·k:(i+1)·k], where k = len(in)/size. Every rank must pass
// equal-length buffers with len(in) divisible by the communicator size.
// This is the collective behind transpose-based distributed FFTs.
func (c *Comm) Alltoall(in, out []float64) error {
	n := len(c.members)
	if len(in) != len(out) {
		return fmt.Errorf("mpirt: alltoall buffer mismatch: %d vs %d", len(in), len(out))
	}
	if len(in)%n != 0 {
		return fmt.Errorf("mpirt: alltoall buffer %d not divisible by %d ranks", len(in), n)
	}
	k := len(in) / n
	tag := c.nextCollTag()
	// Self-chunk is a local copy.
	copy(out[c.rank*k:(c.rank+1)*k], in[c.rank*k:(c.rank+1)*k])
	// Send every other chunk, then receive n-1 chunks (buffered channels
	// make the all-send-then-all-receive order deadlock-free).
	for d := 1; d < n; d++ {
		dst := (c.rank + d) % n
		if err := c.send(dst, tag, in[dst*k:(dst+1)*k]); err != nil {
			return err
		}
	}
	for i := 0; i < n-1; i++ {
		data, src, _, err := c.Recv(AnySource, tag)
		if err != nil {
			return err
		}
		if len(data) != k {
			return fmt.Errorf("mpirt: alltoall chunk from %d has %d values, want %d", src, len(data), k)
		}
		copy(out[src*k:(src+1)*k], data)
	}
	return nil
}
