// Package hpl implements the high-performance LINPACK benchmark: solving a
// dense linear system A·x = b by LU factorisation with row partial pivoting
// on a 2D block-cyclic process grid, as the benchmark the paper uses for the
// CPU component of TGI.
//
// Two modes are provided:
//
//   - Native: a genuinely distributed right-looking LU over the mpirt
//     message-passing runtime (this file). Every rank owns a block-cyclic
//     shard of the augmented matrix [A|b]; panels are factorised with
//     distributed pivot search, pivots are applied with row exchanges,
//     panels broadcast along process rows, U blocks broadcast down process
//     columns, and trailing updates run as local blocked GEMMs. Verified by
//     the standard HPL residual test.
//   - Simulated (model.go): an analytic performance model of the same
//     algorithm used to extrapolate to paper-scale clusters that cannot run
//     natively.
//
// The right-hand side b is carried as column N of the augmented local
// matrix, so pivot swaps and trailing updates apply to it for free; the
// final back substitution is likewise distributed — a block sweep with one
// row-reduce and one column-broadcast per block (see solve).
package hpl

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/mpirt"
	"repro/internal/sim"
)

// Config describes one native HPL run.
type Config struct {
	N     int    // matrix order
	NB    int    // block size
	Procs int    // number of ranks; factored into the most-square P×Q grid
	Seed  uint64 // matrix generator seed
}

// Result is the outcome of a native HPL run.
type Result struct {
	N, NB, P, Q int
	Elapsed     time.Duration
	GFLOPS      float64
	Residual    float64 // scaled HPL residual; < 16 passes
	CommBytes   int64
	Passed      bool
}

// FlopCount returns the canonical HPL operation count for order n:
// 2/3·n³ + 3/2·n² (factorisation plus solve).
func FlopCount(n int) float64 {
	nf := float64(n)
	return 2.0/3.0*nf*nf*nf + 1.5*nf*nf
}

// Grid factors procs into the most-square grid with P <= Q, as HPL's
// planners recommend for its communication pattern.
func Grid(procs int) (p, q int) {
	p = int(math.Sqrt(float64(procs)))
	for ; p > 1; p-- {
		if procs%p == 0 {
			break
		}
	}
	if p < 1 {
		p = 1
	}
	return p, procs / p
}

// matEntry is the deterministic matrix generator: entry (i, j) of A depends
// only on (seed, i, j), so any rank can regenerate any entry without
// communication — the residual check exploits this.
func matEntry(seed uint64, i, j int) float64 {
	r := sim.NewRNG(seed ^ (uint64(i)*0x9E3779B97F4A7C15 + uint64(j)*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9))
	return r.Float64() - 0.5
}

// rhsEntry generates element i of b.
func rhsEntry(seed uint64, i int) float64 {
	return matEntry(seed^0xABCDEF, i, 1<<30)
}

// numroc returns the number of rows/columns of an n-element dimension with
// block size nb owned by coordinate coord of nprocs (ScaLAPACK's NUMROC).
func numroc(n, nb, coord, nprocs int) int {
	nblocks := n / nb
	cnt := (nblocks / nprocs) * nb
	extra := nblocks % nprocs
	switch {
	case coord < extra:
		cnt += nb
	case coord == extra:
		cnt += n % nb
	}
	return cnt
}

// globalToLocalRow maps a global row to (owner process row, local index).
func globalToLocalRow(g, nb, P int) (owner, local int) {
	blk := g / nb
	return blk % P, (blk/P)*nb + g%nb
}

// globalToLocalCol maps a global column to (owner process column, local index).
func globalToLocalCol(g, nb, Q int) (owner, local int) {
	blk := g / nb
	return blk % Q, (blk/Q)*nb + g%nb
}

// shard is one rank's block-cyclic piece of the augmented matrix.
type shard struct {
	cfg        Config
	P, Q       int
	myRow      int
	myCol      int
	rows, cols int       // local dimensions (cols includes the augmented b column)
	a          []float64 // rows × cols, row-major
	grow       []int     // local row index -> global row
	gcol       []int     // local col index -> global col (N means b)
	world      *mpirt.Comm
	rowC       *mpirt.Comm // ranks sharing my process row
	colC       *mpirt.Comm // ranks sharing my process column
}

func newShard(c *mpirt.Comm, cfg Config) (*shard, error) {
	P, Q := Grid(cfg.Procs)
	s := &shard{cfg: cfg, P: P, Q: Q, world: c}
	s.myRow = c.Rank() / Q
	s.myCol = c.Rank() % Q
	var err error
	if s.rowC, err = c.Split(s.myRow, s.myCol); err != nil {
		return nil, err
	}
	if s.colC, err = c.Split(s.myCol+1<<20, s.myRow); err != nil {
		return nil, err
	}
	n, nb := cfg.N, cfg.NB
	s.rows = numroc(n, nb, s.myRow, P)
	s.cols = numroc(n+1, nb, s.myCol, Q)
	s.a = make([]float64, s.rows*s.cols)
	s.grow = make([]int, s.rows)
	for l := range s.grow {
		blk := l / nb
		s.grow[l] = (blk*P+s.myRow)*nb + l%nb
	}
	s.gcol = make([]int, s.cols)
	for l := range s.gcol {
		blk := l / nb
		s.gcol[l] = (blk*Q+s.myCol)*nb + l%nb
	}
	// Fill with generated entries.
	for li, g := range s.grow {
		row := s.a[li*s.cols:]
		for lj, gc := range s.gcol {
			if gc == n {
				row[lj] = rhsEntry(cfg.Seed, g)
			} else {
				row[lj] = matEntry(cfg.Seed, g, gc)
			}
		}
	}
	return s, nil
}

// localColsFrom returns the first local column index whose global column is
// >= g (local columns are globally monotone under block-cyclic layout).
func (s *shard) localColsFrom(g int) int {
	lo, hi := 0, s.cols
	for lo < hi {
		mid := (lo + hi) / 2
		if s.gcol[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// localRowsFrom is the row-wise analogue of localColsFrom.
func (s *shard) localRowsFrom(g int) int {
	lo, hi := 0, s.rows
	for lo < hi {
		mid := (lo + hi) / 2
		if s.grow[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// swapRowsInCols exchanges global rows g1 and g2 across local columns
// [cFrom, cTo). Runs inside one process column: the two owning process rows
// exchange segments (or swap locally when they coincide).
func (s *shard) swapRowsInCols(g1, g2, cFrom, cTo int) error {
	if g1 == g2 || cFrom >= cTo {
		return nil
	}
	o1, l1 := globalToLocalRow(g1, s.cfg.NB, s.P)
	o2, l2 := globalToLocalRow(g2, s.cfg.NB, s.P)
	width := cTo - cFrom
	switch {
	case o1 == o2 && o1 == s.myRow:
		r1 := s.a[l1*s.cols+cFrom : l1*s.cols+cTo]
		r2 := s.a[l2*s.cols+cFrom : l2*s.cols+cTo]
		blas.Swap(r1, r2)
	case o1 == s.myRow:
		seg := s.a[l1*s.cols+cFrom : l1*s.cols+cTo]
		if err := s.colC.Send(o2, swapTag(g1, g2), seg); err != nil {
			return err
		}
		got, _, _, err := s.colC.Recv(o2, swapTag(g1, g2))
		if err != nil {
			return err
		}
		if len(got) != width {
			return fmt.Errorf("hpl: swap width %d, want %d", len(got), width)
		}
		copy(seg, got)
	case o2 == s.myRow:
		seg := s.a[l2*s.cols+cFrom : l2*s.cols+cTo]
		if err := s.colC.Send(o1, swapTag(g1, g2), seg); err != nil {
			return err
		}
		got, _, _, err := s.colC.Recv(o1, swapTag(g1, g2))
		if err != nil {
			return err
		}
		if len(got) != width {
			return fmt.Errorf("hpl: swap width %d, want %d", len(got), width)
		}
		copy(seg, got)
	}
	return nil
}

// swapTag derives a user-space tag for a row exchange; both sides compute
// the same tag from the pair being swapped.
func swapTag(g1, g2 int) int {
	if g1 > g2 {
		g1, g2 = g2, g1
	}
	return ((g1*31+g2)%100000)*2 + 2
}

// factorPanel factorises the panel whose first global column is gc0 (width
// nb), recording pivots in piv (global row numbers). Runs only on ranks in
// the panel's process column.
func (s *shard) factorPanel(gc0, nb int, piv []int) error {
	_, lc0 := globalToLocalCol(gc0, s.cfg.NB, s.Q)
	for j := 0; j < nb; j++ {
		gr := gc0 + j // diagonal global row for this column
		lc := lc0 + j
		// Local pivot candidate over owned rows >= gr.
		rFrom := s.localRowsFrom(gr)
		bestVal, bestRow := 0.0, -1
		for li := rFrom; li < s.rows; li++ {
			if v := math.Abs(s.a[li*s.cols+lc]); v > bestVal {
				bestVal, bestRow = v, s.grow[li]
			}
		}
		// Global pivot: allgather (val, row) pairs over the process column.
		pairs := make([]float64, 2*s.colC.Size())
		if err := s.colC.Allgather([]float64{bestVal, float64(bestRow)}, pairs); err != nil {
			return err
		}
		pv, pr := -1.0, -1
		for r := 0; r < s.colC.Size(); r++ {
			v, row := pairs[2*r], int(pairs[2*r+1])
			if row < 0 {
				continue
			}
			if v > pv || (v == pv && row < pr) { //greenvet:allow floateq -- exact pivot tie-break as in reference HPL; operands are stored copies, not recomputed
				pv, pr = v, row
			}
		}
		if pr < 0 || pv == 0 {
			return fmt.Errorf("hpl: singular matrix at column %d", gr)
		}
		piv[j] = pr
		// Swap rows gr <-> pr within the panel columns.
		if err := s.swapRowsInCols(gr, pr, lc0, lc0+nb); err != nil {
			return err
		}
		// Owner of row gr broadcasts the pivot row segment [lc .. lc0+nb).
		ownerRow, lgr := globalToLocalRow(gr, s.cfg.NB, s.P)
		seg := make([]float64, lc0+nb-lc)
		if s.myRow == ownerRow {
			copy(seg, s.a[lgr*s.cols+lc:lgr*s.cols+lc0+nb])
		}
		if err := s.colC.Bcast(ownerRow, seg); err != nil {
			return err
		}
		pivot := seg[0]
		// Scale the multipliers and rank-1 update the rest of the panel.
		rFrom = s.localRowsFrom(gr + 1)
		for li := rFrom; li < s.rows; li++ {
			row := s.a[li*s.cols:]
			mult := row[lc] / pivot
			row[lc] = mult
			for jj := 1; jj < len(seg); jj++ {
				row[lc+jj] -= mult * seg[jj]
			}
		}
	}
	return nil
}

// Run executes the native distributed HPL benchmark and verifies the
// solution with the standard scaled residual test.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.NB <= 0 || cfg.Procs <= 0 {
		return nil, errors.New("hpl: N, NB and Procs must be positive")
	}
	if cfg.NB > cfg.N {
		cfg.NB = cfg.N
	}
	P, Q := Grid(cfg.Procs)
	res := &Result{N: cfg.N, NB: cfg.NB, P: P, Q: Q}
	start := time.Now() //greenvet:allow detclock -- native benchmark: measures real execution on the host
	var x []float64
	err := mpirt.Run(cfg.Procs, func(c *mpirt.Comm) error {
		s, err := newShard(c, cfg)
		if err != nil {
			return err
		}
		if err := s.factorize(); err != nil {
			return err
		}
		sol, err := s.solve()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			x = sol
			res.CommBytes = c.BytesSent()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start) //greenvet:allow detclock -- native benchmark: measures real execution on the host
	res.GFLOPS = FlopCount(cfg.N) / res.Elapsed.Seconds() / 1e9
	res.Residual = residual(cfg, x)
	res.Passed = res.Residual < 16
	return res, nil
}

// factorize runs the panel loop: factor, broadcast, swap, trsm, update.
func (s *shard) factorize() error {
	n, nb := s.cfg.N, s.cfg.NB
	for gc0 := 0; gc0 < n; gc0 += nb {
		w := nb
		if gc0+w > n {
			w = n - gc0
		}
		panelCol, plc0 := globalToLocalCol(gc0, nb, s.Q)
		piv := make([]int, w)
		// 1. Panel factorisation on the owning process column.
		if s.myCol == panelCol {
			if err := s.factorPanel(gc0, w, piv); err != nil {
				return err
			}
		}
		// 2. Pivot broadcast along process rows.
		pf := make([]float64, w)
		if s.myCol == panelCol {
			for i, p := range piv {
				pf[i] = float64(p)
			}
		}
		if err := s.rowC.Bcast(panelCol, pf); err != nil {
			return err
		}
		for i := range piv {
			piv[i] = int(pf[i])
		}
		// 3. Apply the row swaps to the trailing columns (right of the
		// panel, including b). Panel columns were swapped during the
		// factorisation itself.
		cFrom := s.localColsFrom(gc0 + w)
		for j := 0; j < w; j++ {
			if err := s.swapRowsInCols(gc0+j, piv[j], cFrom, s.cols); err != nil {
				return err
			}
		}
		// 4. Broadcast the panel (multipliers below the diagonal plus the
		// unit-lower block) along process rows. Pack: for each local row
		// with global row >= gc0, the w panel values.
		rFrom := s.localRowsFrom(gc0)
		panelRows := s.rows - rFrom
		buf := make([]float64, panelRows*w)
		if s.myCol == panelCol {
			for li := 0; li < panelRows; li++ {
				copy(buf[li*w:(li+1)*w], s.a[(rFrom+li)*s.cols+plc0:(rFrom+li)*s.cols+plc0+w])
			}
		}
		if err := s.rowC.Bcast(panelCol, buf); err != nil {
			return err
		}
		// 5. The process row owning the diagonal block applies the
		// triangular solve to its trailing block row: U = L11⁻¹·A(k, trailing).
		diagOwner, _ := globalToLocalRow(gc0, nb, s.P)
		trailCols := s.cols - cFrom
		uBuf := make([]float64, w*trailCols)
		if s.myRow == diagOwner && trailCols > 0 {
			// L11 sits in the first w packed panel rows (they are the
			// globally-lowest rows >= gc0 on this process row).
			l11 := buf[:w*w]
			lu := s.localRowsFrom(gc0)
			for r := 0; r < w; r++ {
				copy(uBuf[r*trailCols:(r+1)*trailCols], s.a[(lu+r)*s.cols+cFrom:(lu+r)*s.cols+s.cols])
			}
			blas.TrsmLowerUnitLeft(w, trailCols, l11, w, uBuf, trailCols)
			for r := 0; r < w; r++ {
				copy(s.a[(lu+r)*s.cols+cFrom:(lu+r)*s.cols+s.cols], uBuf[r*trailCols:(r+1)*trailCols])
			}
		}
		// 6. Broadcast U down process columns.
		if trailCols > 0 {
			if err := s.colC.Bcast(diagOwner, uBuf); err != nil {
				return err
			}
		}
		// 7. Local trailing update: A(below, right) -= L·U.
		rBelow := s.localRowsFrom(gc0 + w)
		mBelow := s.rows - rBelow
		if mBelow > 0 && trailCols > 0 {
			// L rows for global rows >= gc0+w are packed in buf starting at
			// offset (rBelow - rFrom).
			l := buf[(rBelow-rFrom)*w:]
			blas.Gemm(mBelow, trailCols, w, -1, l, w, uBuf, trailCols, 1,
				s.a[rBelow*s.cols+cFrom:], s.cols)
		}
	}
	return nil
}

// solve performs a distributed block back substitution on the factorised
// upper triangle. Working from the last column block to the first, the
// process row owning block k forms the partial sums U(k, j>k)·x_j from each
// process column's local columns, reduces them across the row to the block's
// owner column, solves the w×w diagonal system there, and broadcasts x_k
// down that process column. Communication per block is one NB-length
// row-reduce and one NB-length column-broadcast — O(N) data in total,
// against the O(N²/P) local flops of the sweep. Rank 0 assembles and
// returns the full solution (nil on other ranks).
func (s *shard) solve() ([]float64, error) {
	n, nb := s.cfg.N, s.cfg.NB
	// x values for this process column's local columns, filled block by
	// block as the sweep proceeds (every process row gets them via the
	// column broadcast, because later partial sums need them everywhere).
	xloc := make([]float64, s.cols)
	bCol, bLC := globalToLocalCol(n, nb, s.Q)

	nBlocks := (n + nb - 1) / nb
	for k := nBlocks - 1; k >= 0; k-- {
		gr0 := k * nb
		w := nb
		if gr0+w > n {
			w = n - gr0
		}
		rowOwner, lu := globalToLocalRow(gr0, nb, s.P)
		colOwner, lc0 := globalToLocalCol(gr0, nb, s.Q)
		if s.myRow == rowOwner {
			// Partial sums over my local columns right of the block,
			// minus my share of b.
			partial := make([]float64, w)
			cFrom := s.localColsFrom(gr0 + w)
			for r := 0; r < w; r++ {
				row := s.a[(lu+r)*s.cols:]
				var sum float64
				for lj := cFrom; lj < s.cols; lj++ {
					if s.gcol[lj] < n {
						sum += row[lj] * xloc[lj]
					}
				}
				if s.myCol == bCol {
					sum -= row[bLC]
				}
				partial[r] = sum
			}
			var got []float64
			if s.myCol == colOwner {
				got = make([]float64, w)
			}
			if err := s.rowC.Reduce(colOwner, mpirt.OpSum, partial, got); err != nil {
				return nil, err
			}
			if s.myCol == colOwner {
				// rhs = b - Σ U·x = -got; solve the diagonal block.
				for r := range got {
					got[r] = -got[r]
				}
				blas.TrsvUpper(w, s.a[lu*s.cols+lc0:], s.cols, got)
				copy(xloc[lc0:lc0+w], got)
			}
		}
		// Broadcast x_k down the owning process column so every process
		// row can use it in later partial sums.
		if s.myCol == colOwner {
			xk := make([]float64, w)
			if s.myRow == rowOwner {
				copy(xk, xloc[lc0:lc0+w])
			}
			if err := s.colC.Bcast(rowOwner, xk); err != nil {
				return nil, err
			}
			copy(xloc[lc0:lc0+w], xk)
		}
	}
	// Assembly at world rank 0 (grid position row 0, column 0): each
	// process column's row-0 member holds that column's x entries.
	if s.myRow == 0 && s.myCol != 0 {
		send := make([]float64, 0, s.cols)
		for lj, gc := range s.gcol {
			if gc < n {
				send = append(send, xloc[lj])
			}
		}
		return nil, s.world.Send(0, 3, send)
	}
	if s.world.Rank() != 0 {
		return nil, nil
	}
	x := make([]float64, n)
	perCol := make([][]float64, s.Q)
	for q := 1; q < s.Q; q++ {
		data, _, _, err := s.world.Recv(q, 3)
		if err != nil {
			return nil, err
		}
		perCol[q] = data
	}
	for g := 0; g < n; g++ {
		owner, lc := globalToLocalCol(g, nb, s.Q)
		if owner == 0 {
			x[g] = xloc[lc]
		} else {
			if lc >= len(perCol[owner]) {
				return nil, fmt.Errorf("hpl: solution fragment from column %d too short", owner)
			}
			x[g] = perCol[owner][lc]
		}
	}
	return x, nil
}

// residual computes the HPL acceptance metric
// ‖A·x − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · N) on regenerated inputs.
func residual(cfg Config, x []float64) float64 {
	n := cfg.N
	if len(x) != n {
		return math.Inf(1)
	}
	var rinf, anorm, bnorm float64
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		var rowsum float64
		for j := 0; j < n; j++ {
			row[j] = matEntry(cfg.Seed, i, j)
			rowsum += math.Abs(row[j])
		}
		if rowsum > anorm {
			anorm = rowsum
		}
		bi := rhsEntry(cfg.Seed, i)
		if math.Abs(bi) > bnorm {
			bnorm = math.Abs(bi)
		}
		if r := math.Abs(blas.Dot(row, x) - bi); r > rinf {
			rinf = r
		}
	}
	var xnorm float64
	for _, v := range x {
		if math.Abs(v) > xnorm {
			xnorm = math.Abs(v)
		}
	}
	eps := 2.220446049250313e-16
	denom := eps * (anorm*xnorm + bnorm) * float64(n)
	if denom == 0 {
		return math.Inf(1)
	}
	return rinf / denom
}
