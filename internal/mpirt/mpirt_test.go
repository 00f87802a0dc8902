package mpirt

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestRunBadSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("zero world size accepted")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	want := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return want
		}
		return nil
	})
	var errs *Errs
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want *Errs", err)
	}
	if len(errs.ByRank) != 1 || !errors.Is(errs.ByRank[2], want) {
		t.Errorf("ByRank = %v", errs.ByRank)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	var errs *Errs
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want *Errs", err)
	}
	if errs.ByRank[1] == nil {
		t.Error("panic not converted to error")
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []float64{1, 2, 3})
		}
		data, src, tag, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if src != 0 || tag != 5 || len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("got %v from %d tag %d", data, src, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = -1 // must not affect the receiver
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		data, _, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 42 {
			return fmt.Errorf("payload mutated after send: %v", data[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{1}); err != nil {
				return err
			}
			return c.Send(1, 2, []float64{2})
		}
		// Receive tag 2 first even though tag 1 arrived first.
		d2, _, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		d1, _, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if d2[0] != 2 || d1[0] != 1 {
			return fmt.Errorf("tag matching broke: %v %v", d1, d2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, c.Rank(), []float64{float64(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			data, src, tag, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(data[0]) != src || tag != src {
				return fmt.Errorf("mismatched envelope: data %v src %d tag %d", data, src, tag)
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing sources: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("invalid destination accepted")
		}
		if err := c.Send(0, -3, nil); err == nil {
			return errors.New("negative tag accepted")
		}
		if _, _, _, err := c.Recv(7, 0); err == nil {
			return errors.New("invalid source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	err := Run(n, func(c *Comm) error {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	const n = 7
	for root := 0; root < n; root++ {
		root := root
		err := Run(n, func(c *Comm) error {
			buf := make([]float64, 4)
			if c.Rank() == root {
				for i := range buf {
					buf[i] = float64(root*10 + i)
				}
			}
			if err := c.Bcast(root, buf); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != float64(root*10+i) {
					return fmt.Errorf("rank %d got %v", c.Rank(), buf)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Bcast(9, nil); err == nil {
			return errors.New("invalid root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		in := []float64{float64(c.Rank()), 1}
		out := make([]float64, 2)
		if err := c.Reduce(0, OpSum, in, out); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if out[0] != float64(n*(n-1)/2) || out[1] != n {
				return fmt.Errorf("reduce = %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceMaxMin(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		in := []float64{float64(c.Rank())}
		max := make([]float64, 1)
		if err := c.Reduce(0, OpMax, in, max); err != nil {
			return err
		}
		min := make([]float64, 1)
		if err := c.Reduce(0, OpMin, in, min); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if max[0] != n-1 || min[0] != 0 {
				return fmt.Errorf("max %v min %v", max, min)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const n = 4
	err := Run(n, func(c *Comm) error {
		in := []float64{float64(c.Rank() * 2), float64(c.Rank()*2 + 1)}
		var out []float64
		if c.Rank() == 1 {
			out = make([]float64, 2*n)
		}
		if err := c.Gather(1, in, out); err != nil {
			return err
		}
		if c.Rank() == 1 {
			for i := 0; i < 2*n; i++ {
				if out[i] != float64(i) {
					return fmt.Errorf("gather = %v", out)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		in := []float64{float64(c.Rank())}
		out := make([]float64, n)
		if err := c.Allgather(in, out); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if out[i] != float64(i) {
				return fmt.Errorf("rank %d allgather = %v", c.Rank(), out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// allreduce is Reduce to rank 0 followed by Bcast: every rank gets the
// combined result in out.
func allreduce(c *Comm, op Op, in, out []float64) error {
	if err := c.Reduce(0, op, in, out); err != nil {
		return err
	}
	return c.Bcast(0, out)
}

func TestSplitGrid(t *testing.T) {
	// 2x3 grid: row comms and column comms, as HPL uses them.
	const P, Q = 2, 3
	err := Run(P*Q, func(c *Comm) error {
		myRow := c.Rank() / Q
		myCol := c.Rank() % Q
		rowComm, err := c.Split(myRow, myCol)
		if err != nil {
			return err
		}
		colComm, err := c.Split(myCol+100, myRow)
		if err != nil {
			return err
		}
		if rowComm.Size() != Q {
			return fmt.Errorf("row size = %d", rowComm.Size())
		}
		if colComm.Size() != P {
			return fmt.Errorf("col size = %d", colComm.Size())
		}
		if rowComm.Rank() != myCol {
			return fmt.Errorf("row rank = %d, want %d", rowComm.Rank(), myCol)
		}
		if colComm.Rank() != myRow {
			return fmt.Errorf("col rank = %d, want %d", colComm.Rank(), myRow)
		}
		// Sum of ranks along a row must be 0+1+2 = 3 for every row.
		out := make([]float64, 1)
		if err := allreduce(rowComm, OpSum, []float64{float64(myCol)}, out); err != nil {
			return err
		}
		if out[0] != 3 {
			return fmt.Errorf("row sum = %v", out[0])
		}
		// Sum of ranks along a column must be 0+1 = 1.
		if err := allreduce(colComm, OpSum, []float64{float64(myRow)}, out); err != nil {
			return err
		}
		if out[0] != 1 {
			return fmt.Errorf("col sum = %v", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitInterleavedTraffic(t *testing.T) {
	// Messages on a child communicator must not be swallowed by receives on
	// the parent (regression test for the shared pending stash).
	err := Run(2, func(c *Comm) error {
		child, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Send on child first, then parent.
			if err := child.Send(1, 7, []float64{70}); err != nil {
				return err
			}
			return c.Send(1, 8, []float64{80})
		}
		// Receive in the opposite order: parent first.
		dp, _, _, err := c.Recv(0, 8)
		if err != nil {
			return err
		}
		dc, _, _, err := child.Recv(0, 7)
		if err != nil {
			return err
		}
		if dp[0] != 80 || dc[0] != 70 {
			return fmt.Errorf("cross-comm routing broke: %v %v", dp, dc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]float64, 100)); err != nil {
				return err
			}
		} else {
			if _, _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.BytesSent() < 800 {
			return fmt.Errorf("bytes sent = %d, want >= 800", c.BytesSent())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPiByAllreduce(t *testing.T) {
	// A tiny end-to-end SPMD computation: midpoint integration of 4/(1+x²).
	const n = 4
	const steps = 100000
	err := Run(n, func(c *Comm) error {
		h := 1.0 / steps
		local := 0.0
		for i := c.Rank(); i < steps; i += n {
			x := h * (float64(i) + 0.5)
			local += 4 / (1 + x*x)
		}
		out := make([]float64, 1)
		if err := allreduce(c, OpSum, []float64{local * h}, out); err != nil {
			return err
		}
		if math.Abs(out[0]-math.Pi) > 1e-6 {
			return fmt.Errorf("pi = %v", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const n = 5
	const k = 3
	err := Run(n, func(c *Comm) error {
		in := make([]float64, n*k)
		for j := 0; j < n; j++ {
			for x := 0; x < k; x++ {
				in[j*k+x] = float64(c.Rank()*1000 + j*10 + x)
			}
		}
		out := make([]float64, n*k)
		if err := c.Alltoall(in, out); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			for x := 0; x < k; x++ {
				want := float64(i*1000 + c.Rank()*10 + x)
				if out[i*k+x] != want {
					return fmt.Errorf("rank %d out[%d][%d] = %v, want %v",
						c.Rank(), i, x, out[i*k+x], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Alltoall(make([]float64, 4), make([]float64, 2)); err == nil {
			return errors.New("mismatched buffers accepted")
		}
		// Realign the collective counters: both ranks above errored before
		// any traffic, so a barrier still pairs up.
		if err := c.Alltoall(make([]float64, 3), make([]float64, 3)); err == nil {
			return errors.New("indivisible buffer accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallRepeated(t *testing.T) {
	// Two transposes restore the original layout.
	const n = 4
	err := Run(n, func(c *Comm) error {
		in := make([]float64, n)
		for j := range in {
			in[j] = float64(c.Rank()*n + j)
		}
		mid := make([]float64, n)
		if err := c.Alltoall(in, mid); err != nil {
			return err
		}
		back := make([]float64, n)
		if err := c.Alltoall(mid, back); err != nil {
			return err
		}
		for j := range back {
			if back[j] != in[j] {
				return fmt.Errorf("rank %d: double alltoall broke: %v vs %v", c.Rank(), back, in)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashedRankUnblocksPeers simulates a node crash mid-run: one rank
// fails while its peers sit inside a collective that can never complete.
// Run aborts the world on the failed rank's error, so the peers must
// return ErrAborted instead of deadlocking.
func TestCrashedRankUnblocksPeers(t *testing.T) {
	crash := errors.New("simulated node crash")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return crash
		}
		// Without rank 2 this barrier cannot complete; the abort must
		// unblock everyone with an error.
		if err := c.Barrier(); err == nil {
			return errors.New("barrier completed without rank 2")
		} else if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("barrier err = %v, want ErrAborted", err)
		}
		// The world stays poisoned: later calls fail fast too.
		if _, _, _, err := c.Recv(AnySource, AnyTag); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("recv after abort err = %v, want ErrAborted", err)
		}
		return nil
	})
	var errs *Errs
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want *Errs", err)
	}
	if len(errs.ByRank) != 1 || !errors.Is(errs.ByRank[2], crash) {
		t.Errorf("ByRank = %v, want only rank 2's crash", errs.ByRank)
	}
}

// TestPanickedRankUnblocksPeers covers the implicit abort: a rank that
// panics (or returns an error) poisons the world on its way out, so peers
// blocked in Recv do not deadlock.
func TestPanickedRankUnblocksPeers(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom mid-benchmark")
		}
		// Rank 1 never sends: only the abort can unblock this receive.
		if _, _, _, err := c.Recv(1, 0); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("recv err = %v, want ErrAborted", err)
		}
		return nil
	})
	var errs *Errs
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want *Errs", err)
	}
	if len(errs.ByRank) != 1 || errs.ByRank[1] == nil {
		t.Errorf("ByRank = %v, want only rank 1's panic", errs.ByRank)
	}
}

// TestAbortDoesNotEatDeliveredMessages: a message already in flight when the
// world aborts must still be receivable — the abort only breaks waits that
// could never finish.
func TestAbortDoesNotEatDeliveredMessages(t *testing.T) {
	crash := errors.New("late crash")
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 3, []float64{7}); err != nil {
				return err
			}
			return crash
		}
		// Wait until the abort has landed, then receive the earlier message.
		<-c.world.done
		data, _, _, err := c.Recv(0, 3)
		if err != nil {
			return fmt.Errorf("delivered message lost to abort: %v", err)
		}
		if data[0] != 7 {
			return fmt.Errorf("payload = %v", data)
		}
		return nil
	})
	var errs *Errs
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want *Errs", err)
	}
	if len(errs.ByRank) != 1 || !errors.Is(errs.ByRank[0], crash) {
		t.Errorf("ByRank = %v, want only rank 0's crash", errs.ByRank)
	}
}

// TestCollectiveFuzz drives a long pseudo-random schedule of mixed
// collectives on the world communicator and two sub-communicators; any
// tag-accounting or routing bug shows up as a hang (caught by the test
// timeout) or a wrong reduction value.
func TestCollectiveFuzz(t *testing.T) {
	const n = 6
	const steps = 60
	err := Run(n, func(c *Comm) error {
		even, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		pair, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		// The schedule is derived deterministically from the step index so
		// every rank agrees on the collective sequence (SPMD discipline).
		for s := 0; s < steps; s++ {
			switch s % 5 {
			case 0:
				if err := c.Barrier(); err != nil {
					return err
				}
			case 1:
				buf := []float64{float64(s)}
				root := s % n
				if c.Rank() != root {
					buf[0] = -1
				}
				if err := c.Bcast(root, buf); err != nil {
					return err
				}
				if buf[0] != float64(s) {
					return fmt.Errorf("step %d: bcast got %v", s, buf[0])
				}
			case 2:
				out := make([]float64, 1)
				if err := allreduce(even, OpSum, []float64{1}, out); err != nil {
					return err
				}
				if out[0] != float64(even.Size()) {
					return fmt.Errorf("step %d: even allreduce %v", s, out[0])
				}
			case 3:
				out := make([]float64, pair.Size())
				if err := pair.Allgather([]float64{float64(pair.Rank())}, out); err != nil {
					return err
				}
				for i := range out {
					if out[i] != float64(i) {
						return fmt.Errorf("step %d: pair allgather %v", s, out)
					}
				}
			case 4:
				in := make([]float64, n)
				for i := range in {
					in[i] = float64(c.Rank())
				}
				outAll := make([]float64, n)
				if err := c.Alltoall(in, outAll); err != nil {
					return err
				}
				for i, v := range outAll {
					if v != float64(i) {
						return fmt.Errorf("step %d: alltoall %v", s, outAll)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
