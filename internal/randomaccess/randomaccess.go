// Package randomaccess implements the HPC Challenge RandomAccess (GUPS)
// benchmark: read-modify-write updates to random locations of a large
// table, measured in giga-updates per second. Where STREAM stresses
// sequential memory bandwidth, GUPS stresses memory latency and the TLB —
// a different axis of the "memory" component the paper's suite wants
// covered.
//
// The update stream is HPCC's 64-bit LFSR sequence (x ← x<<1 ⊕ (poly if
// the high bit was set)); applying the same stream twice restores the
// table, which is how a run verifies itself exactly.
package randomaccess

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/units"
)

// poly is the primitive polynomial HPCC uses for its update stream.
const poly = 0x0000000000000007

// nextRan advances the LFSR.
func nextRan(x uint64) uint64 {
	hi := x >> 63
	x <<= 1
	if hi != 0 {
		x ^= poly
	}
	return x
}

// Config describes one native run.
type Config struct {
	// LogTableSize is the per-worker table exponent (2^k uint64 words).
	LogTableSize int
	// UpdatesPerWord scales the update count: updates = 4·table size by
	// HPCC convention; 0 means 4.
	UpdatesPerWord int
	// Workers is the number of parallel tables; 0 means GOMAXPROCS. Each
	// worker owns a private table and stream, so the run verifies exactly.
	Workers int
	Seed    uint64
}

// Result is the outcome of a native run.
type Result struct {
	TableWords int64 // total across workers
	Updates    int64
	GUPS       float64
	Elapsed    units.Seconds
	Verified   bool
}

// worker state for one private table.
type worker struct {
	table []uint64
	seed  uint64
	n     int
}

func (w *worker) apply() {
	mask := uint64(len(w.table) - 1)
	x := w.seed
	for i := 0; i < w.n; i++ {
		x = nextRan(x)
		w.table[x&mask] ^= x
	}
}

// Run executes the benchmark: fill tables, time the update storm across
// workers, then apply the identical storm again and verify every word
// returned to its initial value (xor is an involution).
func Run(cfg Config) (*Result, error) {
	if cfg.LogTableSize < 4 || cfg.LogTableSize > 30 {
		return nil, errors.New("randomaccess: LogTableSize must be in [4, 30]")
	}
	upw := cfg.UpdatesPerWord
	if upw <= 0 {
		upw = 4
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 1 {
			workers = 1
		}
	}
	size := 1 << cfg.LogTableSize
	updates := size * upw
	ws := make([]*worker, workers)
	for i := range ws {
		t := make([]uint64, size)
		for j := range t {
			t[j] = uint64(j)
		}
		seed := cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		if seed == 0 {
			seed = 1
		}
		ws[i] = &worker{table: t, seed: seed, n: updates}
	}
	run := func() time.Duration {
		var wg sync.WaitGroup
		start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.apply()
			}(w)
		}
		wg.Wait()
		return time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
	}
	el := run()
	run() // second pass undoes the first
	verified := true
	for _, w := range ws {
		for j, v := range w.table {
			if v != uint64(j) {
				verified = false
				break
			}
		}
	}
	total := int64(updates) * int64(workers)
	res := &Result{
		TableWords: int64(size) * int64(workers),
		Updates:    total,
		GUPS:       float64(total) / el.Seconds() / 1e9,
		Elapsed:    units.FromDuration(el),
		Verified:   verified,
	}
	if !verified {
		return res, fmt.Errorf("randomaccess: verification failed")
	}
	return res, nil
}
