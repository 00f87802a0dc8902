package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// campaign share a trace identifier; Parent is 0 for a trace's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: cells of a parallel sweep open and close spans from
// several workers.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrace allocates a trace identifier.
func (r *recorder) newTrace() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// open starts a span and returns its identifier.
func (r *recorder) open(trace, parent int, layer, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: now})
	return id
}

// add records a span whose times were taken elsewhere and returns its
// identifier.
func (r *recorder) add(s span, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Start, s.End = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, s)
	return s.ID
}

// close ends the span and returns its duration.
func (r *recorder) close(id int) time.Duration {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// time runs f inside a span and returns its duration.
func (r *recorder) time(trace, parent int, layer, name string, f func()) time.Duration {
	id := r.open(trace, parent, layer, name)
	f()
	return r.close(id)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its children cover. Children of
// one span may overlap (parallel cells), so their intervals are merged
// before subtracting.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		cur := [2]int64{-1, -1}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
