package sim

import (
	"errors"

	"repro/internal/units"
)

// SharedResource models a capacity-limited device (a disk backend, a network
// link, a memory controller) under processor-sharing: the aggregate capacity
// is divided equally among active jobs, optionally capped per job (a single
// client cannot exceed its own link speed even when the backend is idle).
//
// Work is measured in abstract units (bytes, flops); capacity in units per
// second of virtual time. Completion callbacks fire inside the engine.
//
// Jobs live in a slice ordered by submission, so completion callbacks
// fire in submission order by construction — the deterministic dispatch
// the event queue depends on — and the steady-state hot path (submit,
// advance, complete) allocates nothing: the job slice, the finished
// scratch and the engine callback are all reused.
type SharedResource struct {
	eng        *Engine
	capacity   float64 // aggregate units/second
	perJobCap  float64 // per-job ceiling; 0 means no ceiling
	jobs       []srJob // in submission order
	last       units.Seconds
	pending    Handle
	doneWork   float64  // total units completed
	busyTime   float64  // ∫ utilization dt
	completeFn func()   // prebuilt r.complete, so reschedule never allocates
	finished   []func() // scratch: done callbacks drained by complete
}

type srJob struct {
	remaining float64
	done      func()
}

// NewSharedResource creates a resource attached to an engine.
func NewSharedResource(eng *Engine, capacity, perJobCap float64) (*SharedResource, error) {
	if capacity <= 0 {
		return nil, errors.New("sim: resource capacity must be positive")
	}
	if perJobCap < 0 {
		return nil, errors.New("sim: negative per-job cap")
	}
	r := &SharedResource{
		eng:       eng,
		capacity:  capacity,
		perJobCap: perJobCap,
		last:      eng.Now(),
	}
	r.completeFn = r.complete
	return r, nil
}

// Reconfigure returns the resource to the state NewSharedResource would
// construct — no jobs, counters zeroed, bookkeeping anchored at the
// engine's current time — while keeping the job and scratch storage.
// Call it after resetting the engine the resource is bound to; recycling
// a (engine, resource) pair across independent simulations behaves
// bit-identically to building fresh ones.
func (r *SharedResource) Reconfigure(capacity, perJobCap float64) error {
	if capacity <= 0 {
		return errors.New("sim: resource capacity must be positive")
	}
	if perJobCap < 0 {
		return errors.New("sim: negative per-job cap")
	}
	for i := range r.jobs {
		r.jobs[i] = srJob{}
	}
	for i := range r.finished {
		r.finished[i] = nil
	}
	r.capacity, r.perJobCap = capacity, perJobCap
	r.jobs = r.jobs[:0]
	r.finished = r.finished[:0]
	r.last = r.eng.Now()
	r.pending = Handle{}
	r.doneWork, r.busyTime = 0, 0
	return nil
}

// rate returns the current per-job service rate.
func (r *SharedResource) rate() float64 {
	n := len(r.jobs)
	if n == 0 {
		return 0
	}
	share := r.capacity / float64(n)
	if r.perJobCap > 0 && share > r.perJobCap {
		share = r.perJobCap
	}
	return share
}

// Utilization returns the instantaneous fraction of capacity in use, in [0, 1].
func (r *SharedResource) Utilization() float64 {
	total := r.rate() * float64(len(r.jobs))
	return total / r.capacity
}

// TotalWorkDone returns the units of work completed so far (including partial
// progress of in-flight jobs up to the current virtual time).
func (r *SharedResource) TotalWorkDone() float64 {
	r.advance()
	return r.doneWork
}

// BusySeconds returns ∫ utilization dt, the device-busy time used by energy
// accounting.
func (r *SharedResource) BusySeconds() float64 {
	r.advance()
	return r.busyTime
}

// advance applies progress between the last bookkeeping point and now.
func (r *SharedResource) advance() {
	now := r.eng.Now()
	dt := float64(now - r.last)
	if dt <= 0 {
		r.last = now
		return
	}
	rate := r.rate()
	if rate > 0 {
		for i := range r.jobs {
			j := &r.jobs[i]
			j.remaining -= rate * dt
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		r.doneWork += rate * dt * float64(len(r.jobs))
		r.busyTime += r.Utilization() * dt
	}
	r.last = now
}

// reschedule cancels any pending completion event and schedules the next one.
func (r *SharedResource) reschedule() {
	r.pending.Cancel()
	rate := r.rate()
	if rate <= 0 || len(r.jobs) == 0 {
		return
	}
	min := r.jobs[0].remaining
	for i := 1; i < len(r.jobs); i++ {
		if r.jobs[i].remaining < min {
			min = r.jobs[i].remaining
		}
	}
	delay := units.Seconds(min / rate)
	h, err := r.eng.After(delay, r.completeFn)
	if err != nil {
		panic("sim: reschedule failed: " + err.Error())
	}
	r.pending = h
}

// complete fires when at least one job has drained. The job slice is in
// submission order, so compacting it in place and draining the finished
// jobs' callbacks front to back fires them in submission order — the
// order resumed processes re-enter the event queue, which must not
// depend on scheduling accidents.
func (r *SharedResource) complete() {
	r.advance()
	r.finished = r.finished[:0]
	keep := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= 1e-9 {
			r.finished = append(r.finished, j.done)
		} else {
			keep = append(keep, j)
		}
	}
	// Clear the vacated tail so finished jobs' callbacks are not retained.
	for i := len(keep); i < len(r.jobs); i++ {
		r.jobs[i] = srJob{}
	}
	r.jobs = keep
	r.reschedule()
	for _, done := range r.finished {
		if done != nil {
			done()
		}
	}
}

// Submit enqueues amount units of work; done (may be nil) fires at completion.
func (r *SharedResource) Submit(amount float64, done func()) error {
	if amount <= 0 {
		return errors.New("sim: non-positive work amount")
	}
	r.advance()
	r.jobs = append(r.jobs, srJob{remaining: amount, done: done})
	r.reschedule()
	return nil
}

// Active returns the number of in-flight jobs.
func (r *SharedResource) Active() int { return len(r.jobs) }

// Capacity returns the aggregate capacity in units per second.
func (r *SharedResource) Capacity() float64 { return r.capacity }
