package fft

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/mpirt"
	"repro/internal/sim"
	"repro/internal/units"
)

// This file implements the distributed (MPIFFT-style) transform: the
// six-step algorithm over the mpirt runtime. The length-n vector is viewed
// as an n1×n2 matrix distributed by rows; the transform becomes
//
//	column FFTs (length n1) → twiddle by ω_n^(j2·k1) → row FFTs (length n2)
//
// with the column FFTs realised as transpose + row FFTs, so all
// inter-process communication is the two all-to-all transposes — exactly
// the traffic pattern the FFT performance model charges for.

// DistConfig describes one distributed run.
type DistConfig struct {
	// LogN1 and LogN2 are the matrix-factor exponents; the global vector
	// length is 2^(LogN1+LogN2).
	LogN1, LogN2 int
	// Procs is the rank count; it must divide both 2^LogN1 and 2^LogN2.
	Procs int
	Seed  uint64
}

// DistResult is the outcome of a distributed run.
type DistResult struct {
	N        int
	Procs    int
	GFLOPS   float64
	Elapsed  units.Seconds
	MaxError float64 // against the serial Transform of the same input
	Passed   bool
}

// inputAt deterministically generates element i of the global input, so
// every rank can build its shard without communication and rank 0 can
// rebuild the whole vector for verification.
func inputAt(seed uint64, i int) complex128 {
	r := sim.NewRNG(seed ^ (uint64(i)*0x9E3779B97F4A7C15 + 0xF17))
	return complex(r.Float64()-0.5, r.Float64()-0.5)
}

// distTranspose globally transposes a rows×cols matrix distributed by rows
// (rowsLoc = rows/p rows per rank, row-major local storage, complex packed
// as re/im float64 pairs). Returns the local shard of the transpose
// (cols/p rows of length rows).
func distTranspose(c *mpirt.Comm, local []float64, rowsLoc, rows, cols int) ([]float64, error) {
	p := c.Size()
	if cols%p != 0 {
		return nil, fmt.Errorf("fft: %d columns not divisible by %d ranks", cols, p)
	}
	colsLoc := cols / p
	// Pack send buffer: chunk s holds my rows × columns [s·colsLoc, …).
	send := make([]float64, len(local))
	chunk := rowsLoc * colsLoc * 2
	for s := 0; s < p; s++ {
		at := s * chunk
		for r := 0; r < rowsLoc; r++ {
			base := r*cols*2 + s*colsLoc*2
			copy(send[at:at+colsLoc*2], local[base:base+colsLoc*2])
			at += colsLoc * 2
		}
	}
	recv := make([]float64, len(local))
	if err := c.Alltoall(send, recv); err != nil {
		return nil, err
	}
	// Unpack: chunk s carries rank s's rows (global rows s·rowsLoc…) of my
	// column block; transpose each chunk into the output, whose local rows
	// are global columns myRank·colsLoc….
	out := make([]float64, colsLoc*rows*2)
	for s := 0; s < p; s++ {
		at := s * chunk
		for r := 0; r < rowsLoc; r++ { // global row s*rowsLoc + r
			gRow := s*rowsLoc + r
			for cc := 0; cc < colsLoc; cc++ {
				dst := (cc*rows + gRow) * 2
				out[dst] = recv[at]
				out[dst+1] = recv[at+1]
				at += 2
			}
		}
	}
	return out, nil
}

// rowFFTs transforms each length-w row of the packed local shard in place.
func rowFFTs(local []float64, rowsLoc, w int) error {
	row := make([]complex128, w)
	for r := 0; r < rowsLoc; r++ {
		base := r * w * 2
		for j := 0; j < w; j++ {
			row[j] = complex(local[base+2*j], local[base+2*j+1])
		}
		if err := Transform(row); err != nil {
			return err
		}
		for j := 0; j < w; j++ {
			local[base+2*j] = real(row[j])
			local[base+2*j+1] = imag(row[j])
		}
	}
	return nil
}

// DistRun executes the distributed transform and verifies the gathered
// result against the serial Transform on rank 0.
//
//greenvet:allow unusedexport -- a reproduced result uses it: the MPIFFT row of EXPERIMENTS.md
func DistRun(cfg DistConfig) (*DistResult, error) {
	if cfg.LogN1 < 1 || cfg.LogN2 < 1 || cfg.LogN1+cfg.LogN2 > 24 {
		return nil, errors.New("fft: LogN1/LogN2 must be >= 1 with LogN1+LogN2 <= 24")
	}
	n1, n2 := 1<<cfg.LogN1, 1<<cfg.LogN2
	n := n1 * n2
	p := cfg.Procs
	if p <= 0 || n1%p != 0 || n2%p != 0 {
		return nil, fmt.Errorf("fft: %d ranks must divide both %d and %d", p, n1, n2)
	}
	var gathered []complex128
	start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
	err := mpirt.Run(p, func(c *mpirt.Comm) error {
		me := c.Rank()
		rows1 := n1 / p // my rows of the n1×n2 view
		// Build my shard: rows [me·rows1, …) of A[j1][j2] = x[j1·n2+j2].
		local := make([]float64, rows1*n2*2)
		for r := 0; r < rows1; r++ {
			j1 := me*rows1 + r
			for j2 := 0; j2 < n2; j2++ {
				v := inputAt(cfg.Seed, j1*n2+j2)
				local[(r*n2+j2)*2] = real(v)
				local[(r*n2+j2)*2+1] = imag(v)
			}
		}
		// Step 1-2: transpose to n2×n1 and FFT rows of length n1 — these
		// are the column FFTs of the original view.
		t1, err := distTranspose(c, local, rows1, n1, n2)
		if err != nil {
			return err
		}
		rows2 := n2 / p
		if err := rowFFTs(t1, rows2, n1); err != nil {
			return err
		}
		// Step 3: twiddle B[j2][k1] by ω_n^(j2·k1).
		for r := 0; r < rows2; r++ {
			j2 := me*rows2 + r
			for k1 := 0; k1 < n1; k1++ {
				w := cmplx.Rect(1, -2*math.Pi*float64(j2)*float64(k1)/float64(n))
				at := (r*n1 + k1) * 2
				v := complex(t1[at], t1[at+1]) * w
				t1[at], t1[at+1] = real(v), imag(v)
			}
		}
		// Step 4-5: transpose back to n1×n2 and FFT rows of length n2.
		t2, err := distTranspose(c, t1, rows2, n2, n1)
		if err != nil {
			return err
		}
		if err := rowFFTs(t2, rows1, n2); err != nil {
			return err
		}
		// Gather D[k1][k2] at rank 0 for verification.
		if me != 0 {
			return c.Send(0, 4, t2)
		}
		full := make([]float64, n*2)
		copy(full, t2)
		for src := 1; src < p; src++ {
			data, _, _, err := c.Recv(src, 4)
			if err != nil {
				return err
			}
			copy(full[src*len(t2):], data)
		}
		// X[k2·n1 + k1] = D[k1][k2].
		gathered = make([]complex128, n)
		for k1 := 0; k1 < n1; k1++ {
			for k2 := 0; k2 < n2; k2++ {
				at := (k1*n2 + k2) * 2
				gathered[k2*n1+k1] = complex(full[at], full[at+1])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
	// Serial reference on the same input.
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = inputAt(cfg.Seed, i)
	}
	if err := Transform(ref); err != nil {
		return nil, err
	}
	maxErr := 0.0
	scale := 0.0
	for i := range ref {
		if d := cmplx.Abs(gathered[i] - ref[i]); d > maxErr {
			maxErr = d
		}
		if a := cmplx.Abs(ref[i]); a > scale {
			scale = a
		}
	}
	rel := maxErr / scale
	return &DistResult{
		N:        n,
		Procs:    p,
		GFLOPS:   FlopCount(n) / elapsed.Seconds() / 1e9,
		Elapsed:  units.FromDuration(elapsed),
		MaxError: rel,
		Passed:   rel < 1e-10*float64(cfg.LogN1+cfg.LogN2),
	}, nil
}
