package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/suite"
)

// probes is how many traced campaigns (and replays of them) a traced run
// makes; their counts must agree exactly.
const probes = 3

// daemonJobsPerClient sizes the traced run's fixed daemon session.
const daemonJobsPerClient = 4

// tracedRun takes the per-layer metrics of a workload: a fixed number of
// traced campaigns, each replayed layer by layer, then a 1-vs-2-worker
// comparison and a traced-vs-untraced comparison that share the time
// budget, and a fixed session of daemon jobs over HTTP.
func tracedRun(in *inputs, ref *reference, dir string, o options, budget time.Duration, w io.Writer) (*result, error) {
	rec := newRecorder()
	t := &tally{}
	m := map[string]float64{}

	var ps []*probe
	var rps []*replay
	for i := 0; i < probes; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("probe-%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		p, err := runProbe(in, ref, sub, rec, true)
		if err != nil {
			return nil, fmt.Errorf("traced campaign: %w", err)
		}
		t.op(p.checkErr)
		ps = append(ps, p)
		rp, err := runReplay(in, ref, p, sub, rec)
		t.op(err)
		if err != nil {
			continue
		}
		if len(rps) > 0 && rp.counts != rps[0].counts {
			t.op(fmt.Errorf("replay %d counted %+v, replay 0 %+v", i, rp.counts, rps[0].counts))
		}
		rps = append(rps, rp)
	}
	if len(rps) == 0 {
		return nil, fmt.Errorf("no replay matched its campaign: %w", t.firstErr)
	}
	layerMetrics(m, ps, rps)

	speedup, err := workerSpeedup(in.seed, dir, budget/3, t)
	if err != nil {
		return nil, err
	}
	m["suite.speedup_w2_over_w1"] = speedup
	if err := tracingOverhead(in, ref, dir, budget/3, m, t); err != nil {
		return nil, err
	}
	if err := daemonLayers(in.seed, dir, m, t, rec); err != nil {
		return nil, err
	}

	self := rec.selfTimes()
	for _, l := range []struct{ metric, layer string }{
		{"self.campaign_ms", "campaign"}, {"self.cell_ms", "cell"}, {"self.render_ms", "render"},
	} {
		m[l.metric] = ms(self[l.layer]) / probes
	}
	m["self.faults_ms"] = ms(self["faults"]) / float64(len(rps))
	printSelfTimes(w, self)
	spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", in.workload, in.seed))
	if err := rec.writeFile(spans, in.workload, in.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "wrote %s\n", spans)
	if t.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", t.firstErr)
	}
	fmt.Fprintf(w, "tracing overhead %.2f%% (%.1f vs %.1f cells/s)\n",
		m["trace.overhead_pct"], m["trace.cells_per_s_traced"], m["trace.cells_per_s_untraced"])
	return newResult(w, perLayerMetrics, m, t.attempted, t.failed), nil
}

// layerMetrics derives the per-layer metrics of the probes and their
// replays. Counts are per campaign; times are medians over the replays.
func layerMetrics(m map[string]float64, ps []*probe, rps []*replay) {
	c := rps[0].counts
	med := func(f func(*replay) time.Duration) float64 {
		xs := make([]float64, len(rps))
		for i, rp := range rps {
			xs[i] = ms(f(rp))
		}
		return median(xs)
	}
	var simUS, recUS []float64
	for _, rp := range rps {
		simUS = append(simUS, rp.simulateUS...)
		recUS = append(recUS, rp.recordUS...)
	}
	m["bench.simulate_calls"] = float64(c.SimulateCalls)
	m["bench.simulate_ms"] = med(func(r *replay) time.Duration { return r.simulate })
	m["bench.simulate_p50_us"] = median(simUS)
	m["sim.events"] = float64(c.SimEvents)
	m["power.measure_calls"] = float64(c.MeasureCalls)
	m["power.measure_ms"] = med(func(r *replay) time.Duration { return r.measure })
	m["power.samples"] = float64(c.Samples)
	m["series.repair_calls"] = float64(c.RepairCalls)
	m["series.repair_ms"] = med(func(r *replay) time.Duration { return r.repair })
	m["series.gaps_filled"] = float64(c.Gaps)
	m["series.outliers_rejected"] = float64(c.Outliers)
	m["suite.attempts"] = float64(c.Attempts)
	m["suite.useful_attempt_ratio"] = float64(c.UsefulAttempts) / float64(c.Attempts)
	m["journal.records"] = float64(c.Records)
	m["journal.record_ms"] = med(func(r *replay) time.Duration { return r.record })
	m["journal.record_p50_us"] = median(recUS)
	m["journal.bytes_written"] = float64(c.BytesWritten)
	m["journal.final_bytes"] = float64(c.Final)
	m["render.ms"] = med(func(r *replay) time.Duration { return r.render })
	m["render.results_ms"] = med(func(r *replay) time.Duration { return r.renderResults })
	m["render.trace_ms"] = med(func(r *replay) time.Duration { return r.renderTrace })
	m["render.metrics_ms"] = med(func(r *replay) time.Duration { return r.renderMetrics })
	m["render.report_ms"] = med(func(r *replay) time.Duration { return r.renderRep })
	m["render.bytes"] = float64(c.RenderBytes)

	var cellMS, busy, idle, merge []float64
	for _, p := range ps {
		cellMS = append(cellMS, p.cellMS...)
		busy = append(busy, ms(p.busy))
		idle = append(idle, ms(p.idle))
		merge = append(merge, ms(p.merge))
	}
	m["suite.cell_p50_ms"] = median(cellMS)
	m["suite.cell_busy_ms"] = median(busy)
	m["suite.worker_idle_ms"] = median(idle)
	m["suite.merge_ms"] = median(merge)
	degraded := 0
	for _, r := range ps[0].out.Results {
		for _, b := range r.Runs {
			if !b.OK() {
				degraded++
			}
		}
	}
	m["suite.benchmarks_degraded"] = float64(degraded)
	if tr := ps[0].tracer; tr != nil {
		m["obs.spans"] = float64(len(tr.Spans()))
		m["obs.events"] = float64(len(tr.Events()))
	}
}

// timedCampaign runs the workload's campaign once into a new directory
// under dir with the given worker count, checks it, and returns its wall
// time.
func timedCampaign(in *inputs, ref *reference, dir string, nworkers int, t *tally) (time.Duration, error) {
	sub, err := campaignDir(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(sub)
	cs := in.campaignSpec(sub, in.newTracer(), nworkers)
	t0 := time.Now()
	out, err := suite.RunCampaign(cs)
	d := time.Since(t0)
	if err == nil {
		err = ref.check(sub, out.Results)
	}
	t.op(err)
	return d, nil
}

// workerSpeedup runs the sweep workload's campaign for the seed
// alternately on one and two workers for the budget (at least three
// each) and returns the ratio of the median times. Every workload's
// traced run measures the same sweep axis, so the number compares the
// two schedules on one input.
func workerSpeedup(seed int64, dir string, budget time.Duration, t *tally) (float64, error) {
	in, err := makeInputs("sweep", seed)
	if err != nil {
		return 0, err
	}
	sub := filepath.Join(dir, "speedup")
	ref, err := buildReference(in, sub)
	if err != nil {
		return 0, err
	}
	var w1, w2 []float64
	start := time.Now()
	for len(w1) < 3 || time.Since(start) < budget {
		d1, err := timedCampaign(in, ref, sub, 1, t)
		if err != nil {
			return 0, err
		}
		d2, err := timedCampaign(in, ref, sub, workers, t)
		if err != nil {
			return 0, err
		}
		w1, w2 = append(w1, ms(d1)), append(w2, ms(d2))
	}
	return median(w1) / median(w2), nil
}

// tracingOverhead runs the workload's campaign alternately without and
// with the benchmark's cell spans for the budget (at least three each)
// and reports both throughputs, the overhead, and the GC cycles per
// untraced campaign.
func tracingOverhead(in *inputs, ref *reference, dir string, budget time.Duration, m map[string]float64, t *tally) error {
	sub := filepath.Join(dir, "overhead")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	// The spans of these campaigns measure the cost of recording them and
	// are not part of the run's span dump.
	rec := newRecorder()
	var plain, withSpans time.Duration
	var gcs uint32
	n := 0
	start := time.Now()
	for n < 3 || time.Since(start) < budget {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d, err := timedCampaign(in, ref, sub, workers, t)
		if err != nil {
			return err
		}
		plain += d
		runtime.ReadMemStats(&ms1)
		gcs += ms1.NumGC - ms0.NumGC
		psub, err := campaignDir(sub)
		if err != nil {
			return err
		}
		p, err := runProbe(in, ref, psub, rec, false)
		if err == nil {
			err = os.RemoveAll(psub)
		}
		if err != nil {
			return err
		}
		t.op(p.checkErr)
		withSpans += p.dur
		n++
	}
	cells := float64(n * in.cellsPerCampaign())
	m["trace.cells_per_s_untraced"] = cells / plain.Seconds()
	m["trace.cells_per_s_traced"] = cells / withSpans.Seconds()
	m["trace.overhead_pct"] = 100 * (withSpans.Seconds()/plain.Seconds() - 1)
	m["runtime.gc_cycles"] = float64(gcs) / float64(n)
	return nil
}

// daemonLayers runs a fixed session of the daemon workload's jobs for
// the seed against the campaign server — each client runs
// daemonJobsPerClient jobs and fetches each job's final status — and
// derives the server-side and live-plane metrics. Every workload's
// traced run measures the same session, so the campaign and live layers
// are measured although the daemon is not a workload of record.
func daemonLayers(seed int64, dir string, m map[string]float64, t *tally, rec *recorder) error {
	in, err := makeInputs("daemon", seed)
	if err != nil {
		return err
	}
	ref, err := buildReference(in, filepath.Join(dir, "daemon-reference"))
	if err != nil {
		return err
	}
	d, err := startDaemon(filepath.Join(dir, "traced-jobs"))
	if err != nil {
		return err
	}
	body, err := json.Marshal(in.job)
	if err != nil {
		d.close()
		return err
	}
	jobs, _ := driveDaemon(d, body, 0, daemonJobsPerClient, true)
	var dropped uint64
	for _, jr := range jobs {
		if j, ok := d.m.Get(jr.id); ok {
			dropped += j.Hub().Bus().Dropped()
		}
	}
	d.close()
	var submit, wait, runMS, toClient []float64
	streamed := 0
	for _, jr := range jobs {
		t.op(checkJob(ref, jr))
		if jr.err != nil {
			continue
		}
		streamed += jr.events
		submit = append(submit, ms(jr.submit))
		st := jr.status
		if st.StartedAt == nil || st.FinishedAt == nil {
			t.op(fmt.Errorf("job %s status has no start or finish time", jr.id))
			continue
		}
		// The job's spans come from the client's clock and the server's
		// timestamps: submit, wait in the queue, run, and stream the end.
		trace := rec.newTrace()
		posted := jr.terminal.Add(-jr.latency)
		root := rec.add(span{Trace: trace, Layer: "daemon.job", Name: jr.id}, posted, jr.terminal)
		rec.add(span{Trace: trace, Parent: root, Layer: "daemon.submit"}, posted, posted.Add(jr.submit))
		rec.add(span{Trace: trace, Parent: root, Layer: "daemon.queue"}, st.SubmittedAt, *st.StartedAt)
		rec.add(span{Trace: trace, Parent: root, Layer: "daemon.run"}, *st.StartedAt, *st.FinishedAt)
		rec.add(span{Trace: trace, Parent: root, Layer: "daemon.stream"}, *st.FinishedAt, jr.terminal)
		wait = append(wait, ms(st.StartedAt.Sub(st.SubmittedAt)))
		runMS = append(runMS, ms(st.FinishedAt.Sub(*st.StartedAt)))
		toClient = append(toClient, ms(jr.terminal.Sub(*st.FinishedAt)))
	}
	m["campaign.submit_p50_ms"] = median(submit)
	m["campaign.queue_wait_p50_ms"] = median(wait)
	m["campaign.run_p50_ms"] = median(runMS)
	m["campaign.finish_to_client_ms"] = median(toClient)
	m["live.events_streamed"] = float64(streamed) / float64(len(jobs))
	m["live.dropped"] = float64(dropped) / float64(len(jobs))
	return nil
}

// printSelfTimes lists each layer's total self time over the run.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self time %-16s %10.3f ms\n", l, ms(self[l]))
	}
}
