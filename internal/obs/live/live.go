// Package live is the wall-clock plane of the observability pipeline:
// streaming telemetry about what a campaign is doing *right now*, layered
// on top of — and strictly separated from — the deterministic virtual-time
// plane in package obs.
//
// The separation is the design invariant. The virtual plane (results JSON,
// Chrome traces, metrics snapshots, journals) is byte-deterministic and
// scheduler-invariant; nothing in this package may leak wall-clock data
// into it. The live plane therefore only *reads*: a Hub taps the stream a
// Recorder already receives, mirrors it onto an event bus with wall-clock
// timestamps, folds it into progress counters, and keeps the most recent
// events in a flight-recorder ring for post-mortem dumps. Enabling or
// disabling the live plane cannot change a single byte of the virtual
// plane's artefacts.
//
// Publishing is non-blocking by construction: a slow or stuck subscriber
// loses events (counted, never silently) rather than stalling the sweep's
// worker pool, and publishing with no subscriber attached costs one atomic
// load on the hot path.
package live

import (
	"strings"
	"time"

	"repro/internal/obs"
)

// Kind classifies a live event so consumers can filter the stream without
// string-matching span names themselves.
type Kind string

// Event kinds. Lifecycle kinds are published by the sweep scheduler;
// mirror kinds are derived from the spans and events the pipeline's
// recorders emit (see the name constants in package obs).
const (
	KindSweepStarted  Kind = "sweep.started"
	KindSweepFinished Kind = "sweep.finished"
	KindCellStarted   Kind = "cell.started"
	KindCellFinished  Kind = "cell.finished"
	KindCellFailed    Kind = "cell.failed"

	KindAttempt     Kind = "attempt"
	KindBackoff     Kind = "backoff"
	KindMeterWindow Kind = "meter.window"
	KindCrash       Kind = "fault.crash"
	KindStraggler   Kind = "fault.straggler"
	KindRepair      Kind = "meter.repair"

	// Shard lifecycle kinds, published by the sharded-sweep supervisor
	// (internal/shard) through Hub.Shard.
	KindShardStarted     Kind = "shard.started"
	KindShardLost        Kind = "shard.lost"
	KindShardFinished    Kind = "shard.finished"
	KindShardQuarantined Kind = "shard.quarantined"

	// Job lifecycle kinds, published by the campaign manager through the
	// hub's Job* methods: a job's own event stream shows when it queued,
	// how long it waited for a slot, and how long it ran on the wall.
	KindJobQueued   Kind = "job.queued"
	KindJobStarted  Kind = "job.started"
	KindJobFinished Kind = "job.finished"

	// KindSpan and KindEvent are the fallbacks for records the classifier
	// does not recognise (custom workloads, future instrumentation).
	KindSpan  Kind = "span"
	KindEvent Kind = "event"
)

// Event is one occurrence on the live plane. Wall is the wall-clock
// publish time; VirtStart/VirtEnd preserve the mirrored record's position
// on the campaign's virtual-time axis (VirtEnd is zero for instants).
type Event struct {
	Seq       uint64     `json:"seq"`
	Wall      time.Time  `json:"wall"`
	Kind      Kind       `json:"kind"`
	Track     string     `json:"track,omitempty"`
	Name      string     `json:"name,omitempty"`
	Procs     int        `json:"procs,omitempty"`
	VirtStart float64    `json:"virt_start,omitempty"`
	VirtEnd   float64    `json:"virt_end,omitempty"`
	Attrs     []obs.Attr `json:"attrs,omitempty"`
}

// classifySpan maps a recorded span to its live-event kind.
func classifySpan(s obs.Span) Kind {
	switch {
	case s.Track == obs.TrackMeter && s.Name == obs.NameMeterWindow:
		return KindMeterWindow
	case s.Name == obs.NameBackoff:
		return KindBackoff
	case strings.HasPrefix(s.Name, obs.AttemptPrefix):
		return KindAttempt
	default:
		return KindSpan
	}
}

// classifyEvent maps a recorded instant event to its live-event kind.
func classifyEvent(e obs.Event) Kind {
	switch e.Name {
	case obs.EventNodeCrash:
		return KindCrash
	case obs.EventStraggler:
		return KindStraggler
	case obs.EventRepair:
		return KindRepair
	default:
		return KindEvent
	}
}
