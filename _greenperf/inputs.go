package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/units"
)

// workers is the sweep worker count of every campaign the benchmark runs:
// the load is sized for a two-core machine.
const workers = 2

// workload is one of the benchmark's input families.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// recordWorkloads are the workloads of record, in the order
// BENCHMARK.json names them.
var recordWorkloads = []workload{
	{"sweep", "untraced unjournaled extended-suite SystemG sweeps: cost is the workload models, sim and power metering"},
	{"faulty", "traced Fire sweeps under a seeded fault plan with retries: wasted attempts and series repair"},
}

// byHand are workloads that run like the others but are not of record.
// Their campaigns rewrite and fsync the whole journal after every cell,
// so they measure the disk: on a two-core VM with a shared virtual disk,
// consecutive runs slowed as their writes piled up, and their figures
// spread beyond any bound BENCHMARK.json may set. Every traced run still
// measures the journal, campaign and live layers through a fixed daemon
// session (see daemonLayers).
var byHand = []workload{
	{"journaled", "traced journaled paper-suite sweeps rendering all four artefacts: cost is the journal rewrite and render"},
	{"daemon", "two closed-loop HTTP clients submitting journaled Fire sweep jobs and streaming their events to the end"},
}

// workloads lists every workload --workload accepts.
var workloads = append(append([]workload(nil), recordWorkloads...), byHand...)

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything one workload's campaigns are built from. All of
// it derives from the workload name and the seed; the program under test
// receives only these generated values.
type inputs struct {
	workload   string
	seed       int64
	spec       *cluster.Spec
	benchmarks []string
	axis       []int
	plan       *faults.Plan
	retry      suite.RetryPolicy
	traced     bool
	journaled  bool
	// job is the daemon workload's POST /jobs body; campaigns of the
	// other workloads run in process.
	job *campaign.JobSpec
}

// cellsPerCampaign is the number of (procs, benchmark) cells one
// campaign runs.
func (in *inputs) cellsPerCampaign() int { return len(in.axis) * len(in.benchmarks) }

// stratifiedAxis draws n process counts from 1..total, one uniformly from
// each of n equal strata, so every seed gives a different axis with the
// same spread of cell sizes.
func stratifiedAxis(r *rand.Rand, total, n int) []int {
	axis := make([]int, 0, n)
	for i := 0; i < n; i++ {
		lo := 1 + i*total/n
		hi := (i + 1) * total / n
		axis = append(axis, lo+r.Intn(hi-lo+1))
	}
	return axis
}

// makeInputs generates a workload's inputs from the seed.
func makeInputs(name string, seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{workload: name, seed: seed}
	switch name {
	case "sweep":
		in.spec = cluster.SystemG()
		in.benchmarks = suite.ExtendedOrder
		in.axis = stratifiedAxis(r, in.spec.TotalCores(), 768)
	case "journaled":
		in.spec = cluster.SystemG()
		in.benchmarks = suite.PaperOrder()
		in.axis = stratifiedAxis(r, in.spec.TotalCores(), 16)
		in.traced, in.journaled = true, true
	case "faulty":
		in.spec = cluster.Fire()
		in.benchmarks = suite.PaperOrder()
		in.axis = stratifiedAxis(r, in.spec.TotalCores(), 96)
		in.traced = true
		// The rates and the retry count are the fault plan README.md
		// documents for greenbench -faults plan.json -retries 3, with the
		// CLI's 30-virtual-second backoff; only the seed comes from --seed.
		in.plan = &faults.Plan{
			Seed:      r.Uint64(),
			CrashProb: 0.2,
			// Every STREAM first attempt loses a node early, so each cell
			// retries at least once whatever the seed.
			Crashes:   []faults.Crash{{Benchmark: suite.BenchSTREAM, Node: 1, At: 1}},
			Straggler: &faults.Straggler{Prob: 0.1, ClockFactor: 0.5},
			Meter:     &faults.Meter{DropRate: 0.05, GlitchRate: 0.02, GlitchWatts: 60},
		}
		in.retry = suite.RetryPolicy{MaxAttempts: 3 + 1, Backoff: units.Seconds(30)}
	case "daemon":
		// POST /jobs has no axis field: a job sweeps its machine's
		// default axis. The seed orders the benchmarks instead, which
		// changes every artefact but not the work. All eight registered
		// workloads make the job as large as a Fire job can be, so one
		// job averages over short stalls.
		in.spec = cluster.Fire()
		in.benchmarks = append(append([]string(nil), suite.ExtendedOrder...), suite.BenchBeff)
		r.Shuffle(len(in.benchmarks), func(i, j int) {
			in.benchmarks[i], in.benchmarks[j] = in.benchmarks[j], in.benchmarks[i]
		})
		in.axis = suite.DefaultAxis(in.spec)
		in.traced, in.journaled = true, true
		in.job = &campaign.JobSpec{
			Name: fmt.Sprintf("greenperf-%d", seed), System: "fire", Sweep: true,
			Benchmarks: in.benchmarks, Workers: workers,
		}
		in.retry = suite.RetryPolicy{MaxAttempts: 1, Backoff: units.Seconds(30)}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return in, nil
}

// artifacts names the files one campaign renders into dir: the results
// always, and the trace, metrics and report when the campaign is traced.
func (in *inputs) artifacts(dir string) campaign.Artifacts {
	a := campaign.Artifacts{Results: filepath.Join(dir, campaign.ResultsFile)}
	if in.traced {
		a.Trace = filepath.Join(dir, campaign.TraceFile)
		a.Metrics = filepath.Join(dir, campaign.MetricsFile)
		a.Report = filepath.Join(dir, campaign.ReportFile)
	}
	return a
}

// campaignSpec builds the suite.RunCampaign input of one campaign that
// renders into dir, the way the greenbench CLI and the campaign server do.
// A non-nil tracer is required when the workload is traced.
func (in *inputs) campaignSpec(dir string, tracer *obs.Tracer, nworkers int) suite.CampaignSpec {
	cs := suite.CampaignSpec{
		Spec:       in.spec,
		Placement:  cluster.Cyclic,
		Benchmarks: in.benchmarks,
		Faults:     in.plan,
		Retry:      in.retry,
		Sweep:      true,
		Axis:       in.axis,
		Workers:    nworkers,
	}
	if in.journaled {
		cs.JournalPath = filepath.Join(dir, campaign.ResultsFile+".journal")
	}
	if in.traced {
		cs.Trace = tracer
	}
	art := in.artifacts(dir)
	cs.Render = func(results []*suite.Result) error { return art.Write(tracer, results) }
	return cs
}

// newTracer returns a fresh campaign tracer, or nil for untraced
// workloads.
func (in *inputs) newTracer() *obs.Tracer {
	if !in.traced {
		return nil
	}
	return obs.NewTracer()
}
