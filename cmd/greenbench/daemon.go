package main

// Daemon mode: greenbench -daemon ADDR turns this process into the
// multi-tenant campaign server (internal/campaign). Job specs arrive
// over HTTP, each job runs in its own directory with its own journal,
// tracer and live hub, and the whole lifecycle is observable: states,
// progress, per-job NDJSON event streams, Prometheus metrics, reports.
// Job specs resolve through campaign.JobSpec.Resolve, the same path the
// CLI's own flags take, and sharded jobs start their workers with the
// CLI's factory and argv builder (shard.go). This file only wires the
// server flags into the campaign package.

import (
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
)

// runDaemon runs the campaign server until a signal (or the test stop
// hook) asks it to shut down.
func runDaemon(o options) error {
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	worker, err := o.workerFactory()
	if err != nil {
		return err
	}
	flightCap := o.flightrecSize
	if flightCap == 0 {
		flightCap = live.DefaultFlightCapacity
	}
	// The ops plane is on by default (-no-ops turns it off): request
	// metrics, queue telemetry, runtime self-samples and per-job
	// supervisor timelines. It observes wall-clock behaviour only — job
	// artefacts stay byte-identical either way.
	var tel *ops.Telemetry
	if !o.noOps {
		tel = ops.New()
		tel.StartRuntimeSampler(o.opsSample, func(s ops.RuntimeSample) {
			logger.Info("runtime sample",
				"goroutines", s.Goroutines,
				"heap_alloc_bytes", s.HeapAllocBytes,
				"heap_objects", s.HeapObjects,
				"gc_total", s.NumGC,
				"gc_pause_total_seconds", s.GCPauseTotalSeconds,
				"open_fds", s.OpenFDs)
		})
		defer tel.Close()
	}
	mgr, err := campaign.NewManager(campaign.ManagerConfig{
		Dir:              o.daemonDir,
		MaxConcurrent:    o.maxJobs,
		FlightCapacity:   flightCap,
		Logger:           logger,
		Worker:           worker,
		HeartbeatTimeout: o.shardTimeout,
		ShardRetries:     o.shardRetries,
		Ops:              tel,
	})
	if err != nil {
		return err
	}
	srv, err := campaign.NewServer(campaign.ServerConfig{
		Addr:    o.daemon,
		Manager: mgr,
		Logger:  logger,
		Pprof:   o.pprof,
		Ops:     tel,
	})
	if err != nil {
		mgr.Close()
		return err
	}
	logger.Info("campaign server listening",
		"addr", srv.Addr(), "dir", o.daemonDir, "max_jobs", o.maxJobs, "pprof", o.pprof, "ops", !o.noOps)
	fmt.Fprintf(os.Stderr, "campaign server on http://%s (POST /jobs; /metrics /healthz /statusz /buildinfo)\n", srv.Addr())
	if o.onServe != nil {
		o.onServe(srv.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
	case <-o.daemonStop: // nil channel (no hook) blocks forever
		logger.Info("shutting down", "signal", "stop hook")
	}
	signal.Stop(sigs)
	// Server first (no new submissions, streams end), then the manager
	// (cancels queued jobs, lets running ones abort at a cell boundary).
	srv.Close()
	mgr.Close()
	logger.Info("campaign server stopped")
	return nil
}
