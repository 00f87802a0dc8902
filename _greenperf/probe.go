package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/suite"
)

// cellSink is the benchmark's suite.LiveSink: it opens a span per sweep
// cell under the campaign's span and times the cells, so the scheduler's
// busy and idle time are measured without instrumenting the program. Its
// Tap forwards the record stream unchanged, as the interface requires.
type cellSink struct {
	rec    *recorder
	trace  int
	parent int

	mu       sync.Mutex
	started  time.Time
	workers  int
	lastDone time.Time
	cellMS   []float64
	busy     time.Duration
}

func (s *cellSink) SweepStarted(total, workers int) {
	s.mu.Lock()
	s.started, s.workers = time.Now(), workers
	s.mu.Unlock()
}

func (s *cellSink) SweepFinished() {}

func (s *cellSink) Tap(inner obs.Recorder, procs int) obs.Recorder { return inner }

func (s *cellSink) BeginCell(procs int) func(err error, retries int, degraded bool) {
	id := s.rec.open(s.trace, s.parent, "cell", fmt.Sprintf("p=%d", procs))
	return func(error, int, bool) {
		d := s.rec.close(id)
		s.mu.Lock()
		s.lastDone = time.Now()
		s.cellMS = append(s.cellMS, ms(d))
		s.busy += d
		s.mu.Unlock()
	}
}

// probe is one traced campaign: the program's own campaign, run with the
// benchmark's cell sink and its Render hook timed.
type probe struct {
	out    *suite.CampaignOutcome
	tracer *obs.Tracer
	dur    time.Duration
	cellMS []float64
	busy   time.Duration
	// idle is worker time not spent in a cell between the sweep's start
	// and its last cell finishing; merge runs from the last cell
	// finishing to the Render call.
	idle  time.Duration
	merge time.Duration
	// journal and journalBytes capture the campaign's journal as it
	// stands when Render runs (journaled workloads only), for the replay.
	journal      *suite.Journal
	journalBytes []byte
	// checkErr is the campaign's correctness-gate failure, if any.
	checkErr error
}

// runProbe runs one traced campaign into dir and checks it against the
// reference. The error is the campaign's own; a gate failure is kept in
// the probe.
func runProbe(in *inputs, ref *reference, dir string, rec *recorder, capture bool) (*probe, error) {
	trace := rec.newTrace()
	root := rec.open(trace, 0, "campaign", in.workload)
	sink := &cellSink{rec: rec, trace: trace, parent: root}
	p := &probe{tracer: in.newTracer()}
	cs := in.campaignSpec(dir, p.tracer, workers)
	cs.Live = sink
	render := cs.Render
	cs.Render = func(results []*suite.Result) error {
		sink.mu.Lock()
		p.merge = time.Since(sink.lastDone)
		sink.mu.Unlock()
		var err error
		rec.time(trace, root, "render", "campaign.Artifacts", func() { err = render(results) })
		if err != nil || !capture || cs.JournalPath == "" {
			return err
		}
		rec.time(trace, root, "capture", "journal", func() {
			if p.journalBytes, err = os.ReadFile(cs.JournalPath); err == nil {
				p.journal, err = suite.OpenJournal(cs.JournalPath)
			}
		})
		return err
	}
	out, err := suite.RunCampaign(cs)
	p.dur = rec.close(root)
	if err != nil {
		return nil, err
	}
	p.out = out
	p.cellMS, p.busy = sink.cellMS, sink.busy
	p.idle = sink.lastDone.Sub(sink.started)*time.Duration(sink.workers) - sink.busy
	p.checkErr = ref.check(dir, out.Results)
	return p, nil
}
