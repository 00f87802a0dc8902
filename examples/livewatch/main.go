// Livewatch: watch a fault-injected parallel sweep through its own live
// telemetry endpoints while it runs.
//
// The example wires a live.Hub into a SweepPlan, serves /metrics,
// /progress and /events on a loopback port, and then — playing the role
// of an external dashboard — polls its own /progress over HTTP until the
// campaign reports done, printing each snapshot as it converges. Each
// cell is paced by a short wall-clock pause so there is something to
// watch; the pause never touches the virtual plane, so the sweep's
// results are the same as an unpaced, unwatched run.
//
// It self-checks what the paper's two-plane design promises: the ETA
// estimate converges to zero, every cell completes, the injected crash
// shows up as a retry on the live plane, and the Prometheus exposition
// answers mid-run.
//
//	go run ./examples/livewatch
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/suite"
)

func main() {
	// The same crashy scenario the traced example uses: one scheduled
	// node crash on HPL (forcing a backoff + retry) and a guaranteed
	// straggler, swept across four process counts, two cells at a time.
	plan := &faults.Plan{
		Seed:      11,
		Crashes:   []faults.Crash{{Benchmark: suite.BenchHPL, Node: 1, At: 50, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.9},
	}

	tracer := obs.NewTracer()
	hub := live.NewHub()
	srv, err := live.NewServer("127.0.0.1:0", hub, func() obs.Snapshot {
		return tracer.Registry().Snapshot()
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("live telemetry on http://%s (metrics, progress, events)\n\n", srv.Addr())

	sweep := suite.SweepPlan{
		Axis:    []int{2, 4, 6, 8},
		Workers: 2,
		Trace:   tracer,
		Live:    hub,
		Configure: func(procs int) (suite.Config, error) {
			time.Sleep(80 * time.Millisecond) // pacing only; virtual plane unaffected
			cfg := suite.SeededConfig(cluster.Testbed(), procs, 23)
			cfg.Faults = plan
			cfg.Retry = suite.RetryPolicy{MaxAttempts: 3, Backoff: 30}
			return cfg, nil
		},
	}

	done := make(chan error, 1)
	go func() {
		_, err := suite.RunSweepPlan(sweep)
		done <- err
	}()

	// Play the dashboard: poll our own /progress until the campaign is
	// done, remembering the ETA trajectory.
	var last live.ProgressSnapshot
	var etas []float64
	for {
		p, err := fetchProgress(srv.Addr())
		if err != nil {
			log.Fatalf("polling /progress: %v", err)
		}
		if p.CellsDone != last.CellsDone || p.Done != last.Done {
			fmt.Println(p.String())
		}
		last = p
		if p.ETASeconds >= 0 {
			etas = append(etas, p.ETASeconds)
		}
		if p.Done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	// Self-checks: the live plane saw the whole campaign.
	if last.CellsTotal != 4 || last.CellsDone != 4 {
		log.Fatalf("progress ended at %d/%d, want 4/4", last.CellsDone, last.CellsTotal)
	}
	if last.Retries == 0 {
		log.Fatal("the injected HPL crash never surfaced as a live retry")
	}
	if len(etas) == 0 || etas[len(etas)-1] != 0 {
		log.Fatalf("ETA never converged to zero: %v", etas)
	}
	prom, err := fetchBody("http://" + srv.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	for _, want := range []string{"live_cells_done 4", "suite_attempts"} {
		if !strings.Contains(prom, want) {
			log.Fatalf("/metrics missing %q", want)
		}
	}

	fmt.Printf("\nETA trajectory (s): %v\n", etas)
	fmt.Printf("events published: %d, dropped: %d\n", last.EventsPublished, last.EventsDropped)
	fmt.Println("ok: live plane watched the whole sweep without touching it")
}

// fetchProgress GETs and decodes one /progress snapshot.
func fetchProgress(addr string) (live.ProgressSnapshot, error) {
	var p live.ProgressSnapshot
	body, err := fetchBody("http://" + addr + "/progress")
	if err != nil {
		return p, err
	}
	err = json.Unmarshal([]byte(body), &p)
	return p, err
}

func fetchBody(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
