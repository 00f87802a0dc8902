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

// Norm returns a standard normal variate by the ziggurat method of
// Marsaglia and Tsang ("The Ziggurat Method for Generating Random
// Variables", J. Stat. Softw. 5(8), 2000), with 128 layers. About 99% of
// draws cost one Uint64, a comparison and a multiply: the low 7 bits pick
// a layer and the high 32 bits are a signed abscissa inside it. The rest
// fall in a layer's wedge, tested against the density, or in the base
// layer's tail beyond zigR.
func (r *RNG) Norm() float64 {
	u := r.Uint64()
	i := u & zigMask
	j := int32(u >> 32)
	if abs32(j) < zigK[i] {
		return float64(j) * zigW[i]
	}
	return r.normSlow(i, j)
}

// normSlow finishes a draw whose abscissa fell outside its layer's
// rectangle: in the base layer it draws from the tail, in any other it
// accepts a point under the density and otherwise starts a fresh draw.
func (r *RNG) normSlow(i uint64, j int32) float64 {
	for {
		if i == 0 {
			// Marsaglia's exponential tail. 1-Float64 is in (0, 1], so
			// Log never sees 0.
			for {
				x := -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					if j < 0 {
						return -zigR - x
					}
					return zigR + x
				}
			}
		}
		x := float64(j) * zigW[i]
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		u := r.Uint64()
		i, j = u&zigMask, int32(u>>32)
		if abs32(j) < zigK[i] {
			return float64(j) * zigW[i]
		}
	}
}

// abs32 returns |j| as a uint32, so that |MinInt32| = 2^31 is exact.
func abs32(j int32) uint32 {
	if j < 0 {
		return -uint32(j)
	}
	return uint32(j)
}

// The ziggurat's 128 layers have equal area zigV under the standard
// normal density f(x) = exp(-x²/2) (unnormalised). Layer i ≥ 1 spans
// [0, x_i] between heights f(x_i) and f(x_{i-1}); the base layer 0 is
// the rectangle [0, zigR]×[0, f(zigR)] plus the tail beyond zigR, seen
// as a rectangle of width zigV/f(zigR). x_127 = zigR and x_0 = 0.
const (
	zigLayers = 128
	zigMask   = zigLayers - 1
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
	zigScale  = 1 << 31 // the abscissa is a signed 32-bit integer
)

// The layer tables, built by init from the closed form and never written
// again. zigW[i] scales j to x, and zigF[i] = f(x_i). zigK[i] bounds the
// |j| whose point lies where layer i is wholly under the density (left of
// x_{i-1}, or of zigR in the base layer), so the draw is accepted at once.
var (
	zigK [zigLayers]uint32
	zigW [zigLayers]float64
	zigF [zigLayers]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	x := zigR
	q := zigV / f(zigR) // the base layer's width, tail included
	zigK[0] = uint32(zigR / q * zigScale)
	zigK[1] = 0
	zigW[0] = q / zigScale
	zigW[zigMask] = zigR / zigScale
	zigF[0] = 1
	zigF[zigMask] = f(zigR)
	for i := zigMask - 1; i >= 1; i-- {
		next := math.Sqrt(-2 * math.Log(zigV/x+f(x)))
		zigK[i+1] = uint32(next / x * zigScale)
		x = next
		zigF[i] = f(x)
		zigW[i] = x / zigScale
	}
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
