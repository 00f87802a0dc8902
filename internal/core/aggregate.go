package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
)

// Aggregator selects the central-tendency measure that folds the weighted
// REEs into the single TGI number. The paper uses the weighted arithmetic
// mean throughout; its related-work discussion (John, "More on Finding a
// Single Number to Indicate Overall Performance of a Benchmark Suite")
// concludes that "both arithmetic and harmonic means can be used to
// summarize performance if appropriate weights are applied" — this type
// makes that comparison runnable.
type Aggregator int

// Supported aggregators.
const (
	// Arithmetic is Σ W_i·REE_i, the paper's Equation 4.
	Arithmetic Aggregator = iota
	// Harmonic is (Σ W_i / REE_i)⁻¹: the right mean when REEs are rates
	// and the weights are work shares; dominated by the worst component,
	// which strengthens the paper's "bounded by the least REE" intuition.
	Harmonic
	// Geometric is Π REE_i^{W_i}: scale-free, the SPEC aggregate; a
	// system twice as good on one component and half as good on another
	// scores exactly 1.
	Geometric
)

func (a Aggregator) String() string {
	switch a {
	case Arithmetic:
		return "arithmetic"
	case Harmonic:
		return "harmonic"
	case Geometric:
		return "geometric"
	default:
		return fmt.Sprintf("aggregator(%d)", int(a))
	}
}

// ParseAggregator resolves a mean's name, case-insensitively: the String
// form or its short alias (am, hm, gm). The empty name is the paper's
// arithmetic mean.
func ParseAggregator(name string) (Aggregator, error) {
	switch strings.ToLower(name) {
	case "", "arithmetic", "am":
		return Arithmetic, nil
	case "harmonic", "hm":
		return Harmonic, nil
	case "geometric", "gm":
		return Geometric, nil
	default:
		return 0, fmt.Errorf("unknown mean %q (want arithmetic, harmonic or geometric)", name)
	}
}

// Aggregate folds normalised weights and REEs with the chosen mean.
func Aggregate(a Aggregator, ree, weights []float64) (float64, error) {
	if len(ree) == 0 {
		return 0, errors.New("core: nothing to aggregate")
	}
	if len(ree) != len(weights) {
		return 0, fmt.Errorf("core: %d REEs for %d weights", len(ree), len(weights))
	}
	if !stats.SumsToOne(weights, 1e-9) {
		return 0, errors.New("core: weights must sum to one")
	}
	switch a {
	case Arithmetic:
		s := 0.0
		for i, r := range ree {
			s += weights[i] * r
		}
		return s, nil
	case Harmonic:
		return stats.WeightedHarmonicMean(ree, weights)
	case Geometric:
		// Weighted geometric mean via the log domain.
		for _, r := range ree {
			if r <= 0 {
				return 0, errors.New("core: geometric aggregation requires positive REEs")
			}
		}
		s := 0.0
		for i, r := range ree {
			s += weights[i] * math.Log(r)
		}
		return math.Exp(s), nil
	default:
		return 0, fmt.Errorf("core: unknown aggregator %v", a)
	}
}

// ComputeAggregated is Compute with a selectable aggregation mean: the
// weights come from the scheme as usual, the fold from the aggregator.
func ComputeAggregated(a Aggregator, test, ref []Measurement, s Scheme, custom []float64) (*Components, error) {
	c, err := Compute(test, ref, s, custom)
	if err != nil {
		return nil, err
	}
	tgi, err := Aggregate(a, c.REE, c.Weights)
	if err != nil {
		return nil, err
	}
	c.TGI = tgi
	return c, nil
}
