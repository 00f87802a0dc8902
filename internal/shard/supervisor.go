package shard

import (
	"context"
	"fmt"
	"log/slog"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Monitor receives shard lifecycle notifications on the wall-clock
// plane. The live telemetry Hub satisfies it structurally; a nil Monitor
// is fine. Implementations must be safe for concurrent calls — shards
// are supervised in parallel.
type Monitor interface {
	// ShardStarted announces a worker launch: which shard, which attempt
	// (0 = first), how many cells the task owns.
	ShardStarted(shard, attempt, cells int)
	// ShardLost announces a worker death: exit status, kill signal, or a
	// heartbeat gone silent.
	ShardLost(shard int, reason string)
	// ShardFinished announces a task that completed cleanly.
	ShardFinished(shard int)
	// ShardQuarantined announces an axis point given up on after retries
	// and bisection.
	ShardQuarantined(shard, procs int, reason string)
}

// BisectMonitor is an optional Monitor extension: implementations also
// hear poison-cell bisection decisions. left and right are the two
// halves' axis points; treat both as read-only.
type BisectMonitor interface {
	ShardBisected(shard int, left, right []int)
}

// BeatGapMonitor is an optional Monitor extension: implementations also
// hear heartbeat sequence gaps, one call per detected gap with the
// number of lines missed.
type BeatGapMonitor interface {
	ShardBeatGap(shard, missed int)
}

// monitorList fans lifecycle events out to several monitors, including
// the optional extensions for those that implement them.
type monitorList []Monitor

func (l monitorList) ShardStarted(shard, attempt, cells int) {
	for _, m := range l {
		m.ShardStarted(shard, attempt, cells)
	}
}

func (l monitorList) ShardLost(shard int, reason string) {
	for _, m := range l {
		m.ShardLost(shard, reason)
	}
}

func (l monitorList) ShardFinished(shard int) {
	for _, m := range l {
		m.ShardFinished(shard)
	}
}

func (l monitorList) ShardQuarantined(shard, procs int, reason string) {
	for _, m := range l {
		m.ShardQuarantined(shard, procs, reason)
	}
}

func (l monitorList) ShardBisected(shard int, left, right []int) {
	for _, m := range l {
		if b, ok := m.(BisectMonitor); ok {
			b.ShardBisected(shard, left, right)
		}
	}
}

func (l monitorList) ShardBeatGap(shard, missed int) {
	for _, m := range l {
		if b, ok := m.(BeatGapMonitor); ok {
			b.ShardBeatGap(shard, missed)
		}
	}
}

// Monitors composes monitors into one, skipping nils. With zero or one
// non-nil argument it returns nil or that monitor unwrapped.
func Monitors(ms ...Monitor) Monitor {
	var list monitorList
	for _, m := range ms {
		if m != nil {
			list = append(list, m)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	return list
}

// Spec configures a supervision run.
type Spec struct {
	// Tasks are the initial shards, typically from Partition. They are
	// supervised concurrently; tasks produced by bisection run
	// sequentially within their branch, so one journal segment never has
	// two writers at once.
	Tasks []Task
	// Start builds (without starting) the worker process for a task. The
	// supervisor owns the command's stdout — the heartbeat channel — so
	// Start must leave cmd.Stdout nil. Stderr may be wired to anything.
	Start func(t Task) (*exec.Cmd, error)
	// HeartbeatTimeout kills a worker whose stdout has been silent this
	// long (default 30s). Workers tick faster than this by construction
	// (StartTicks), so only a dead, wedged or starved worker trips it.
	HeartbeatTimeout time.Duration
	// MaxRetries is how many times a task is relaunched after a loss
	// before it is bisected (or, at one cell, quarantined). Default 2;
	// negative means no retries.
	MaxRetries int
	// Backoff is the wall-clock delay before the first relaunch, doubling
	// per retry (default 250ms). Purely wall-clock pacing: it cannot
	// affect the campaign's deterministic artifacts.
	Backoff time.Duration
	// Logger, when non-nil, receives one structured record per
	// supervision event (the CLI passes a text handler on stderr, the
	// campaign server its NDJSON handler).
	Logger *slog.Logger
	// Monitor, when non-nil, receives shard lifecycle events.
	Monitor Monitor
}

// Quarantine is one axis point the supervisor gave up on.
type Quarantine struct {
	Shard  int    // originating shard
	Procs  int    // the poisoned axis point
	Reason string // the last loss that condemned it
}

// Report is the outcome of a supervision run.
type Report struct {
	// Launches counts worker processes started; Losses counts the ones
	// that died (the difference is clean completions).
	Launches int
	Losses   int
	// CellsSeen counts distinct cell keys workers reported checkpointed.
	CellsSeen int
	// BeatGaps counts heartbeat lines lost in transit, summed across all
	// workers: the shortfall whenever a beat's sequence number jumps past
	// the expected next value. Zero on a healthy run.
	BeatGaps int
	// Quarantined lists the axis points isolated by bisection and given
	// up on, in axis order. Empty means the campaign is complete.
	Quarantined []Quarantine
}

// supervisor is the mutable state of one Run.
type supervisor struct {
	spec Spec

	mu          sync.Mutex
	launches    int
	losses      int
	beatGaps    int
	cells       map[string]bool
	quarantined []Quarantine
}

// slog emits a structured supervision record when a Logger is attached.
func (s *supervisor) slog(level slog.Level, msg string, args ...any) {
	if s.spec.Logger == nil {
		return
	}
	s.spec.Logger.Log(context.Background(), level, msg, args...)
}

// Run supervises every task to completion or quarantine. It returns a
// hard error only when a worker cannot be constructed or started at all
// (a broken Spec, not a crashed shard); crashed shards are retried,
// bisected and ultimately quarantined instead.
func Run(spec Spec) (Report, error) {
	if spec.Start == nil {
		return Report{}, fmt.Errorf("shard: spec has no Start")
	}
	if spec.HeartbeatTimeout <= 0 {
		spec.HeartbeatTimeout = 30 * time.Second
	}
	if spec.MaxRetries < 0 {
		spec.MaxRetries = 0
	} else if spec.MaxRetries == 0 {
		spec.MaxRetries = 2
	}
	if spec.Backoff <= 0 {
		spec.Backoff = 250 * time.Millisecond
	}
	s := &supervisor{spec: spec, cells: map[string]bool{}}
	var wg sync.WaitGroup
	errs := make([]error, len(spec.Tasks))
	for i, t := range spec.Tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.supervise(t)
		}()
	}
	wg.Wait()
	rep := Report{
		Launches:  s.launches,
		Losses:    s.losses,
		CellsSeen: len(s.cells),
		BeatGaps:  s.beatGaps,
	}
	// Quarantines accumulate in completion order; report them in axis
	// order so the outcome is stable across scheduling.
	sort.Slice(s.quarantined, func(i, j int) bool {
		return s.quarantined[i].Procs < s.quarantined[j].Procs
	})
	rep.Quarantined = s.quarantined
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// supervise runs one task through its retry budget, then bisects or
// quarantines.
func (s *supervisor) supervise(t Task) error {
	if len(t.Procs) == 0 {
		return nil
	}
	var lastLoss string
	for attempt := 0; attempt <= s.spec.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(s.spec.Backoff << (attempt - 1))
			s.slog(slog.LevelInfo, "shard relaunching",
				"shard", t.Shard, "attempt", attempt+1, "max_attempts", s.spec.MaxRetries+1, "reason", lastLoss)
		}
		if m := s.spec.Monitor; m != nil {
			m.ShardStarted(t.Shard, attempt, len(t.Procs))
		}
		loss, err := s.runOnce(t)
		if err != nil {
			return err
		}
		if loss == "" {
			if m := s.spec.Monitor; m != nil {
				m.ShardFinished(t.Shard)
			}
			return nil
		}
		lastLoss = loss
		s.mu.Lock()
		s.losses++
		s.mu.Unlock()
		s.slog(slog.LevelWarn, "shard worker lost",
			"shard", t.Shard, "procs", fmt.Sprint(t.Procs), "reason", loss)
		if m := s.spec.Monitor; m != nil {
			m.ShardLost(t.Shard, loss)
		}
	}
	if len(t.Procs) > 1 {
		// The task keeps dying: isolate the poison by bisection. The two
		// halves run sequentially — they share the shard's journal
		// segment, and a segment must never have two writers at once.
		// Completed cells are already checkpointed, so each half re-runs
		// only what its worker never finished.
		mid := len(t.Procs) / 2
		left := Task{Shard: t.Shard, Procs: t.Procs[:mid]}
		right := Task{Shard: t.Shard, Procs: t.Procs[mid:]}
		s.slog(slog.LevelInfo, "shard bisecting",
			"shard", t.Shard, "left", fmt.Sprint(left.Procs), "right", fmt.Sprint(right.Procs))
		if b, ok := s.spec.Monitor.(BisectMonitor); ok {
			b.ShardBisected(t.Shard, left.Procs, right.Procs)
		}
		if err := s.supervise(left); err != nil {
			return err
		}
		return s.supervise(right)
	}
	q := Quarantine{Shard: t.Shard, Procs: t.Procs[0], Reason: lastLoss}
	s.mu.Lock()
	s.quarantined = append(s.quarantined, q)
	s.mu.Unlock()
	s.slog(slog.LevelWarn, "shard cell quarantined",
		"shard", t.Shard, "procs", q.Procs, "reason", q.Reason)
	if m := s.spec.Monitor; m != nil {
		m.ShardQuarantined(t.Shard, q.Procs, q.Reason)
	}
	return nil
}

// runOnce launches one worker and watches it to completion. It returns
// ("", nil) on clean exit, a loss reason for a death the supervisor
// should retry, or an error for a worker that could not start.
func (s *supervisor) runOnce(t Task) (loss string, err error) {
	cmd, err := s.spec.Start(t)
	if err != nil {
		return "", fmt.Errorf("shard %d: building worker: %w", t.Shard, err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", fmt.Errorf("shard %d: piping worker stdout: %w", t.Shard, err)
	}
	isolate(cmd)
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("shard %d: starting worker: %w", t.Shard, err)
	}
	s.mu.Lock()
	s.launches++
	s.mu.Unlock()

	// lastBeat is the wall time of the last parseable heartbeat line,
	// as UnixNano; the watchdog compares against it.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	var timedOut atomic.Bool
	watchdogDone := make(chan struct{})
	go func() {
		interval := s.spec.HeartbeatTimeout / 4
		if interval <= 0 {
			interval = time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				silent := time.Since(time.Unix(0, lastBeat.Load()))
				if silent > s.spec.HeartbeatTimeout {
					timedOut.Store(true)
					kill(cmd)
					return
				}
			case <-watchdogDone:
				return
			}
		}
	}()

	// Drain the heartbeat stream until the worker closes its stdout.
	// Reading must finish before Wait — Wait tears the pipe down.
	gaps := 0
	readBeats(out, maxBeatLine, func(b Beat, missed int) {
		lastBeat.Store(time.Now().UnixNano())
		if missed > 0 {
			gaps += missed
			s.slog(slog.LevelWarn, "heartbeat gap",
				"shard", t.Shard, "missed", missed, "seq", b.Seq)
			if g, ok := s.spec.Monitor.(BeatGapMonitor); ok {
				g.ShardBeatGap(t.Shard, missed)
			}
		}
		if b.Ev == BeatCell && b.Key != "" {
			s.mu.Lock()
			s.cells[b.Key] = true
			s.mu.Unlock()
		}
	})
	if gaps > 0 {
		s.mu.Lock()
		s.beatGaps += gaps
		s.mu.Unlock()
	}
	waitErr := cmd.Wait()
	close(watchdogDone)
	switch {
	case timedOut.Load():
		return fmt.Sprintf("heartbeat silent for over %v; worker killed", s.spec.HeartbeatTimeout), nil
	case waitErr != nil:
		return waitErr.Error(), nil
	}
	return "", nil
}
