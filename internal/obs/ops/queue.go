package ops

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// depthSeriesCap bounds the queue-depth time series: a ring of the most
// recent samples, old entries overwritten in place.
const depthSeriesCap = 256

// DepthSample is one point in the queue-depth time series.
type DepthSample struct {
	Wall    time.Time `json:"wall"`
	Depth   int       `json:"depth"`
	Running int       `json:"running"`
}

// QueueStats tracks the campaign manager's admission state over wall
// time: the current and historical queue depth, slot utilization, and
// per-job queue-wait and run-duration histograms. All methods are
// nil-receiver safe.
type QueueStats struct {
	mu        sync.Mutex
	slots     int
	maxQueued int
	depth     int
	running   int
	queued    uint64 // jobs ever enqueued
	started   uint64 // jobs that reached a slot
	finished  uint64 // jobs that reached a terminal state after running
	queueWait *obs.Histogram
	runDur    *obs.Histogram
	series    []DepthSample
	next      int // ring cursor once len(series) == depthSeriesCap
}

func newQueueStats() *QueueStats {
	return &QueueStats{
		queueWait: obs.NewHistogram(durationBuckets),
		runDur:    obs.NewHistogram(durationBuckets),
	}
}

// Configure records the manager's static admission limits.
func (q *QueueStats) Configure(slots, maxQueued int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.slots, q.maxQueued = slots, maxQueued
	q.mu.Unlock()
}

// Sample records the instantaneous queue depth and running count, both
// as the current gauges and as a point in the bounded time series.
func (q *QueueStats) Sample(depth, running int) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.depth, q.running = depth, running
	s := DepthSample{Wall: time.Now(), Depth: depth, Running: running}
	if len(q.series) < depthSeriesCap {
		q.series = append(q.series, s)
	} else {
		q.series[q.next] = s
		q.next = (q.next + 1) % depthSeriesCap
	}
	q.mu.Unlock()
}

// JobQueued counts an admission.
func (q *QueueStats) JobQueued() {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.queued++
	q.mu.Unlock()
}

// JobStarted records a job leaving the queue for a slot after waiting
// the given wall seconds.
func (q *QueueStats) JobStarted(waitSeconds float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.started++
	q.queueWait.Observe(waitSeconds)
	q.mu.Unlock()
}

// JobFinished records a job releasing its slot after running the given
// wall seconds.
func (q *QueueStats) JobFinished(runSeconds float64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.finished++
	q.runDur.Observe(runSeconds)
	q.mu.Unlock()
}

// QueueSnap is the queue's aggregate view for /statusz and /metrics.
type QueueSnap struct {
	Slots       int           `json:"slots"`
	SlotsInUse  int           `json:"slots_in_use"`
	MaxQueued   int           `json:"max_queued"`
	Depth       int           `json:"depth"`
	JobsQueued  uint64        `json:"jobs_queued_total"`
	JobsStarted uint64        `json:"jobs_started_total"`
	JobsRun     uint64        `json:"jobs_finished_total"`
	QueueWait   HistSummary   `json:"queue_wait"`
	RunDuration HistSummary   `json:"run_duration"`
	DepthSeries []DepthSample `json:"depth_series,omitempty"`

	// Full-bucket views for the Prometheus rendering; the JSON view is
	// the compact summary.
	queueWaitHist obs.HistSnap
	runDurHist    obs.HistSnap
}

// Snapshot copies the queue state; the depth series comes back oldest
// first. Zero value on nil.
func (q *QueueStats) Snapshot() QueueSnap {
	if q == nil {
		return QueueSnap{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	series := make([]DepthSample, 0, len(q.series))
	if len(q.series) == depthSeriesCap {
		series = append(series, q.series[q.next:]...)
		series = append(series, q.series[:q.next]...)
	} else {
		series = append(series, q.series...)
	}
	waitSnap := q.queueWait.Snap("campaign_queue_wait_seconds")
	runSnap := q.runDur.Snap("campaign_run_seconds")
	return QueueSnap{
		Slots: q.slots, SlotsInUse: q.running, MaxQueued: q.maxQueued, Depth: q.depth,
		JobsQueued: q.queued, JobsStarted: q.started, JobsRun: q.finished,
		QueueWait: summarize(waitSnap), RunDuration: summarize(runSnap),
		DepthSeries:   series,
		queueWaitHist: waitSnap, runDurHist: runSnap,
	}
}
