package obs

// Track and record names shared by the pipeline's recorders (suite,
// power, faults) and the live-plane classifier
// (internal/obs/live). Pinning them here keeps the virtual-time and
// wall-clock planes agreeing on what a record means; the string values
// are part of the golden trace format and must not change.
const (
	// TrackMeter carries the power meter's sampling windows and their
	// repair events.
	TrackMeter = "meter"
	// TrackSuite carries one span per suite run ("run p=N").
	TrackSuite = "suite"

	// NameMeterWindow is the meter's per-attempt sampling-window span.
	NameMeterWindow = "window"
	// NameBackoff is the virtual-time wait span before a retry attempt.
	NameBackoff = "backoff"
	// AttemptPrefix starts every per-attempt span name ("attempt 1", …).
	AttemptPrefix = "attempt "

	// EventNodeCrash marks an injected node crash.
	EventNodeCrash = "fault: node crash"
	// EventStraggler marks an injected straggler slowdown.
	EventStraggler = "fault: straggler"
	// EventRepair marks a meter window whose trace the repair pass
	// changed, with counts of the holes, filled samples and rejected
	// outliers.
	EventRepair = "repair: meter trace repaired"
)
