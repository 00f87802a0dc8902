package beff

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func TestSimulateBasics(t *testing.T) {
	spec := cluster.Fire()
	res, err := Simulate(DefaultModelConfig(spec, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.RingRate <= 0 {
		t.Errorf("non-positive ring rate %v", res.RingRate)
	}
	if res.Duration <= 0 {
		t.Errorf("non-positive duration %v", res.Duration)
	}
	if res.Profile == nil || res.Profile.Duration() != res.Duration {
		t.Errorf("profile does not cover the run: %v vs %v",
			res.Profile.Duration(), res.Duration)
	}
	// A ring cannot beat the memory system's ability to move the payload.
	if float64(res.RingRate) <= 0 ||
		math.IsInf(float64(res.RingRate), 0) || math.IsNaN(float64(res.RingRate)) {
		t.Errorf("degenerate ring rate %v", res.RingRate)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	spec := cluster.Fire()
	a, err := Simulate(DefaultModelConfig(spec, 48))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(DefaultModelConfig(spec, 48))
	if err != nil {
		t.Fatal(err)
	}
	if a.RingRate != b.RingRate || a.Duration != b.Duration {
		t.Errorf("model is not deterministic: %+v vs %+v", a, b)
	}
}

// TestBlockPlacementBeatsCyclic: with block placement only the ranks at
// node boundaries cross the fabric, so the natural ring sustains at
// least the cyclic layout's rate (where nearly every hop is cross-node).
func TestBlockPlacementBeatsCyclic(t *testing.T) {
	spec := cluster.Fire()
	cyc := DefaultModelConfig(spec, 64)
	blk := cyc
	blk.Placement = cluster.Block
	rc, err := Simulate(cyc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(blk)
	if err != nil {
		t.Fatal(err)
	}
	if rb.RingRate < rc.RingRate {
		t.Errorf("block ring rate %v below cyclic %v", rb.RingRate, rc.RingRate)
	}
}

// TestSingleProcessStaysLocal: one rank's successor is itself, so the
// ring never touches the fabric and the round costs only latency + the
// memory copy.
func TestSingleProcessStaysLocal(t *testing.T) {
	res, err := Simulate(DefaultModelConfig(cluster.Testbed(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RingRate <= 0 {
		t.Errorf("single-process ring rate %v", res.RingRate)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	spec := cluster.Testbed()
	cases := []ModelConfig{
		{Spec: nil, Procs: 4},
		{Spec: spec, Procs: 0},
		{Spec: spec, Procs: 4, MessageBytes: -1},
		{Spec: spec, Procs: 4, Rounds: -5},
	}
	for i, cfg := range cases {
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}

// TestMoreRanksMoveMoreBytes: aggregate ring throughput should not
// collapse as the machine fills — each round moves procs × message
// bytes, so the rate at 128 ranks must exceed the rate at 8.
func TestMoreRanksMoveMoreBytes(t *testing.T) {
	spec := cluster.Fire()
	small, err := Simulate(DefaultModelConfig(spec, 8))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Simulate(DefaultModelConfig(spec, 128))
	if err != nil {
		t.Fatal(err)
	}
	if large.RingRate <= small.RingRate {
		t.Errorf("ring rate fell from %v (8 ranks) to %v (128 ranks)",
			small.RingRate, large.RingRate)
	}
}

// rankNodes reconstructs the rank→node map behind a distribution, using
// the same assignment order as cluster.Distribute: block fills nodes
// contiguously, cyclic deals rank r to node r mod nodes. It is the
// oracle for crossing's closed form.
func rankNodes(dist []int, procs int, pl cluster.Placement) []int {
	nodes := make([]int, 0, procs)
	if pl == cluster.Cyclic {
		for r := 0; r < procs; r++ {
			nodes = append(nodes, r%len(dist))
		}
		return nodes
	}
	for j, k := range dist {
		for i := 0; i < k; i++ {
			nodes = append(nodes, j)
		}
	}
	return nodes
}

// TestCrossingMatchesRankMap checks the closed-form count of ring edges
// leaving each node against a walk over every rank, on every named
// system, under both placements, at every process count.
func TestCrossingMatchesRankMap(t *testing.T) {
	for _, name := range cluster.Names() {
		spec, err := cluster.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []cluster.Placement{cluster.Block, cluster.Cyclic} {
			for procs := 1; procs <= spec.TotalCores(); procs++ {
				dist, err := spec.Distribute(procs, pl)
				if err != nil {
					t.Fatal(err)
				}
				ranks := rankNodes(dist, procs, pl)
				want := make([]int, len(dist))
				for r, node := range ranks {
					if ranks[(r+1)%procs] != node {
						want[node]++
					}
				}
				for j := range dist {
					if got := crossing(dist, j, procs, pl); got != want[j] {
						t.Fatalf("%s %v procs=%d node %d: crossing = %d, rank walk %d",
							name, pl, procs, j, got, want[j])
					}
				}
			}
		}
	}
}
