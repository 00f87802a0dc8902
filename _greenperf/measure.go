package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/suite"
)

// minCampaigns is the fewest campaigns a timed loop runs, whatever its
// time budget, so the tail percentile always has ten samples beyond it.
const minCampaigns = 30

// usage is a snapshot of the process's CPU time and allocation counters.
type usage struct {
	cpu    time.Duration
	bytes  uint64
	allocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:  ms.TotalAlloc,
		allocs: ms.Mallocs,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, bytes: u.bytes - v.bytes, allocs: u.allocs - v.allocs}
}

func (u *usage) add(v usage) {
	u.cpu += v.cpu
	u.bytes += v.bytes
	u.allocs += v.allocs
}

// tally counts a run's ops — campaigns, jobs and replays — and the ones
// that failed or were incorrect.
type tally struct {
	attempted, failed int
	firstErr          error
}

// op records one op; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// endToEnd accumulates one workload's untraced measurements.
type endToEnd struct {
	tally
	latencies []float64 // per campaign, ms
	cells     int
	// busy is the wall time the throughput is taken over: the summed
	// campaign times in process, the whole client window for the daemon.
	busy time.Duration
	use  usage
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, that percentile, and the sample count. With fewer than
// eleven samples it falls back to the maximum.
func tail(xs []float64) (value, pct float64, n int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	k := n - 11
	if k < 0 {
		return s[n-1], 100, n
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metrics derives the end-to-end metrics of record. op_error_ratio and
// campaign_tail_ms are printed but not among them: the first is 0 on a
// correct run and is carried by the result's attempted and failed
// counts; the second follows the host's worst burst of CPU steal in the
// run more than the program (see README.md).
func (e *endToEnd) metrics(setupTimes []float64) map[string]float64 {
	cells := float64(e.cells)
	return map[string]float64{
		"setup_s":              median(setupTimes),
		"cells_per_s":          cells / e.busy.Seconds(),
		"campaign_p50_ms":      median(e.latencies),
		"cpu_ms_per_cell":      ms(e.use.cpu) / cells,
		"alloc_bytes_per_cell": float64(e.use.bytes) / cells,
		"allocs_per_cell":      float64(e.use.allocs) / cells,
	}
}

// campaignDir makes a new directory under dir for one campaign's
// artefacts; the caller removes it once the campaign is checked. Each
// campaign renders into a directory of its own, as each daemon job does.
// On ext4, rewriting one path would start the write-back of each
// campaign's files when they are closed and make the next campaign's
// truncation wait for it, so the times would follow the disk.
func campaignDir(dir string) (string, error) { return os.MkdirTemp(dir, "campaign-") }

// runInProcess runs the workload's campaign back to back through
// suite.RunCampaign for the time budget (and at least minCampaigns
// times), timing each from the call until its artefacts are on disk.
// Each campaign is then checked against the reference and its directory
// removed, outside the timed region.
func runInProcess(in *inputs, ref *reference, dir string, budget time.Duration) (*endToEnd, error) {
	e := &endToEnd{}
	start := time.Now()
	for i := 0; time.Since(start) < budget || i < minCampaigns; i++ {
		sub, err := campaignDir(dir)
		if err != nil {
			return nil, err
		}
		tracer := in.newTracer()
		cs := in.campaignSpec(sub, tracer, workers)
		u0 := readUsage()
		t0 := time.Now()
		out, err := suite.RunCampaign(cs)
		d := time.Since(t0)
		e.use.add(readUsage().sub(u0))
		if err == nil {
			e.latencies = append(e.latencies, ms(d))
			e.busy += d
			e.cells += in.cellsPerCampaign()
			if err = ref.check(sub, out.Results); err != nil {
				err = fmt.Errorf("campaign %d: %w", i, err)
			}
		}
		e.op(err)
		if err := os.RemoveAll(sub); err != nil {
			return nil, err
		}
	}
	return e, nil
}
