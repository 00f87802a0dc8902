package sim

import "math"

// RNG is a small, fast, deterministic random-number generator (splitmix64).
// The simulator cannot use math/rand's global source because experiment
// reproducibility requires every run to be a pure function of its seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	// Guard u1 away from zero so Log is finite.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormAt returns a normal variate with the given mean and standard deviation.
func (r *RNG) NormAt(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Fork derives an independent child generator. Distinct labels give distinct
// streams; the parent's stream is unaffected. The child is returned by
// value (a single uint64 of state), so the per-attempt fork chain of a
// fault draw — Fork(bench).Fork(procs).Fork(attempt) — stays entirely on
// the stack and never allocates.
func (r RNG) Fork(label uint64) RNG {
	// Mix the label through the state without consuming parent entropy.
	z := r.state ^ (label * 0xd6e8feb86659fd93)
	z = (z ^ (z >> 32)) * 0xd6e8feb86659fd93
	return RNG{state: z ^ (z >> 32) ^ 0xabcdef0123456789}
}
