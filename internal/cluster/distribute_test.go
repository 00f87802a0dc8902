package cluster

import (
	"reflect"
	"testing"
)

// referenceDistribute is the distribution by the definitions: cyclic
// deals one process at a time round-robin (DistributeInto's loop before
// it computed each node's share directly), and block fills each node in
// turn.
func referenceDistribute(s *Spec, procs int, pl Placement) []int {
	out := make([]int, s.Nodes)
	if pl == Cyclic {
		for i := 0; i < procs; i++ {
			out[i%s.Nodes]++
		}
		return out
	}
	left := procs
	for i := range out {
		out[i] = min(s.Node.Cores(), left)
		left -= out[i]
	}
	return out
}

// TestDistributeMatchesReference checks every process count on every
// named system, under both placements, against the one-at-a-time deal,
// and checks that FromDistribution calls its util function once per
// distinct non-zero node count and builds the same phase as calling it
// for every node. One scratch serves every system in turn, so a phase
// built over a larger or busier machine's must leave no load behind.
func TestDistributeMatchesReference(t *testing.T) {
	var sc Scratch
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int, s.Nodes)
		for _, pl := range []Placement{Block, Cyclic} {
			for procs := 1; procs <= s.TotalCores(); procs++ {
				want := referenceDistribute(s, procs, pl)
				got, err := s.DistributeInto(procs, pl, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v %d procs: %v, reference %v", name, pl, procs, got, want)
				}
				checkPhaseCalls(t, s, got, nil)
				checkPhaseCalls(t, s, got, &sc)
			}
		}
	}
}

// checkPhaseCalls builds a phase over dist in sc with a counting util
// function and compares it with one built node by node.
func checkPhaseCalls(t *testing.T, s *Spec, dist []int, sc *Scratch) {
	t.Helper()
	util := func(procs, cores int) Util {
		return Util{CPU: float64(procs) / float64(cores), Mem: 0.01 * float64(procs)}
	}
	calls := 0
	lp := sc.FromDistribution(1, s, dist, func(procs, cores int) Util {
		calls++
		return util(procs, cores)
	})
	distinct := map[int]bool{}
	want := make([]Util, len(dist))
	for i, p := range dist {
		if p > 0 {
			distinct[p] = true
			want[i] = util(p, s.Node.Cores()).Clamp()
		}
	}
	if calls != len(distinct) {
		t.Fatalf("%s %v: util function called %d times for %d distinct counts", s.Name, dist, calls, len(distinct))
	}
	if got := lp.Phases[0].NodeUtil; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: phase %v, node by node %v", s.Name, dist, got, want)
	}
}

// BenchmarkScratchFromDistribution distributes every process count of
// SystemG cyclically and builds its profile on one scratch, as a sweep
// worker does: once warm it allocates nothing.
func BenchmarkScratchFromDistribution(b *testing.B) {
	s := SystemG()
	var sc Scratch
	f := func(procs, cores int) Util { return Util{CPU: float64(procs) / float64(cores)} }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dist, err := sc.Distribute(s, 1+i%s.TotalCores(), Cyclic)
		if err != nil {
			b.Fatal(err)
		}
		sc.FromDistribution(1, s, dist, f)
	}
}
