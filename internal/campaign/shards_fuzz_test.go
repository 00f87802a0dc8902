package campaign

import (
	"bytes"
	"testing"
)

// FuzzWorkerSpec feeds arbitrary bytes to readWorkerSpec, the half of
// RunShardWorker that reads the worker's stdin, so no input starts a
// campaign or touches a file. No input may panic, and an accepted
// assignment must be runnable: a segment to journal into, at least one
// process count, and a suite config that validates for every one of
// them. The seeds are TestRunShardWorkerRefusesBadInput's refusals plus
// assignments the supervisor writes.
func FuzzWorkerSpec(f *testing.F) {
	for _, tc := range badWorkerSpecs("seg") {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte(`{"task":{"shard":1,"procs":[2,4]},"segment":"seg","job":{"system":"testbed","sweep":true,"retries":2},"cell_pause":1000,"traced":true,"tick":5000000}`))
	f.Add([]byte(`{"task":{"shard":0,"procs":[8,128]},"segment":"seg","job":{"system":"fire","sweep":true,"benchmarks":["extended"],"faults":{"seed":7,"crash_prob":0.2}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w, job, err := readWorkerSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if w.Segment == "" || len(w.Task.Procs) == 0 || job.CellPause != w.CellPause {
			t.Fatalf("accepted %s as an incomplete assignment: %+v", body, w)
		}
		cs := job.CampaignSpec()
		cs.PauseCell = nil
		for _, p := range w.Task.Procs {
			cfg, err := cs.Configure(p)
			if err == nil {
				err = cfg.Validate()
			}
			if err != nil {
				t.Fatalf("accepted %s, but its cell p=%d cannot run: %v", body, p, err)
			}
		}
	})
}
