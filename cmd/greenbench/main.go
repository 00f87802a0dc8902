// Command greenbench runs the simulated TGI benchmark suite (HPL, STREAM,
// IOzone behind a wall-plug meter) on one of the built-in cluster models
// and writes the measurements as JSON — the input format of cmd/tgi.
//
// Usage:
//
//	greenbench -system fire -procs 128 -o fire.json
//	greenbench -system systemg -procs 1024 -o ref.json
//	greenbench -system fire -sweep -o sweep.json      # the paper's axis
//	greenbench -spec mycluster.json -o mine.json      # user-defined machine
//	greenbench -native -watts 120 -o host.json        # real run on this host
//
// Suite composition and scheduling:
//
//	greenbench -list                                  # registered workloads
//	greenbench -system fire -bench extended -o x.json # seven-benchmark suite
//	greenbench -system fire -bench hpl,beff -o x.json # custom ordered suite
//	greenbench -system fire -sweep -workers 4 -o s.json  # parallel sweep
//
// Sweep cells are independent deterministic computations, so -workers N
// runs them concurrently with output byte-identical to -workers 1.
//
// Resilience:
//
//	greenbench -system fire -faults plan.json -retries 3 -o fire.json
//	greenbench -system fire -sweep -o sweep.json              # interrupted…
//	greenbench -system fire -sweep -o sweep.json -resume      # …picks up here
//
// A sweep with -o checkpoints every completed (procs, benchmark) cell to
// <out>.journal; -resume skips the checkpointed cells, so a resumed sweep
// produces the identical output file. The journal records the sweep's
// benchmark list and refuses to resume a differently-composed sweep. It
// is removed once the final JSON is safely written.
//
// Crash isolation:
//
//	greenbench -system fire -sweep -shards 4 -o sweep.json
//	greenbench -system fire -sweep -shards 4 -shard-timeout 60s -shard-retries 3 -o s.json
//
// -shards N splits the sweep axis across N independent worker processes,
// each checkpointing to its own journal segment and heartbeating to the
// supervising parent. A worker that crashes or goes silent is killed and
// relaunched with backoff; a shard that keeps dying is bisected down to
// the poison cell, which is quarantined while the rest of the campaign
// completes as a partial result (journal kept; a later -resume without
// the crash re-runs just the quarantined cells). Segments merge in axis
// order, so sharded output is byte-identical to -shards 0 at any count.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/suite"
	"repro/internal/units"
)

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := validateCLI(*o); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(2)
	}
	if err := run(*o); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		// The flags resolve as a job spec, so a refused spec is a usage
		// error like a bad flag.
		var se *campaign.SpecError
		if errors.As(err, &se) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// defineFlags registers greenbench's flags on fs, bound to the fields of
// the returned options.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.system, "system", "fire", "cluster model: "+strings.Join(cluster.Names(), ", "))
	fs.StringVar(&o.specPath, "spec", "", "JSON machine-spec file (overrides -system)")
	fs.BoolVar(&o.native, "native", false, "run the real benchmark suite on this host")
	fs.Float64Var(&o.watts, "watts", 0, "host wall power for -native (from your meter)")
	fs.IntVar(&o.procs, "procs", 0, "MPI process count (default: all cores)")
	fs.BoolVar(&o.sweep, "sweep", false, "run the paper's process sweep instead of one point")
	fs.StringVar(&o.bench, "bench", "", "ordered comma-separated benchmark list, or 'paper'/'extended' (default: paper; see -list)")
	fs.IntVar(&o.workers, "workers", 1, "concurrent sweep cells (output is byte-identical whatever the count; 1 runs one worker)")
	fs.BoolVar(&o.list, "list", false, "list the registered benchmark workloads and exit")
	fs.StringVar(&o.out, "o", "", "output JSON path (default: stdout summary only)")
	fs.StringVar(&o.placement, "placement", "cyclic", "process placement: cyclic or block")
	fs.StringVar(&o.faultsPath, "faults", "", "JSON fault-plan file to inject (see internal/faults)")
	fs.IntVar(&o.retries, "retries", 0, "retries per benchmark after an injected failure")
	fs.Float64Var(&o.timeout, "timeout", 0, "per-benchmark virtual-time limit in seconds (0: none)")
	fs.BoolVar(&o.resume, "resume", false, "skip (procs, benchmark) cells checkpointed in the journal")
	fs.StringVar(&o.journalPath, "journal", "", "sweep checkpoint journal (default: <out>.journal)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON timeline of the campaign")
	fs.StringVar(&o.metricsPath, "metrics", "", "write campaign metrics (counters, gauges, histograms) as JSON")
	fs.StringVar(&o.reportPath, "report", "", "write the human-readable run report ('-': stdout)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry over HTTP on this address (e.g. :8080; /metrics, /progress, /events)")
	fs.DurationVar(&o.progressEvery, "progress", 0, "print a progress line to stderr at this wall-clock interval (e.g. 2s; 0: off)")
	fs.StringVar(&o.eventsPath, "events", "", "append the live event stream to this file as NDJSON")
	fs.StringVar(&o.flightPath, "flightrec", "", "flight-recorder dump path on interrupt/abort (default: <out>.flightrec.json)")
	fs.IntVar(&o.flightrecSize, "flightrec-size", live.DefaultFlightCapacity,
		fmt.Sprintf("flight-recorder ring capacity in events (%d..%d)", live.MinFlightCapacity, live.MaxFlightCapacity))
	fs.DurationVar(&o.cellPause, "cellpause", 0, "wall-clock pause before each sweep cell (demo/e2e pacing; virtual results unaffected)")
	fs.IntVar(&o.shards, "shards", 0, "run the sweep as this many supervised worker processes (crash isolation; needs -sweep and -o/-journal)")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 30*time.Second, "kill and relaunch a shard worker whose heartbeat is silent this long")
	fs.IntVar(&o.shardRetries, "shard-retries", 2, "relaunches per lost shard before bisecting to the poison cell (negative: none)")
	fs.BoolVar(&o.shardWorker, "shard-worker", false, "internal: run as a supervised shard worker, reading the assignment as JSON on stdin")
	fs.StringVar(&o.daemon, "daemon", "", "run as a multi-tenant campaign server on this address (e.g. :8080; POST /jobs)")
	fs.StringVar(&o.daemonDir, "daemon-dir", "greenbench-jobs", "campaign server: directory for per-job journals and artefacts")
	fs.IntVar(&o.maxJobs, "max-jobs", 2, "campaign server: jobs running concurrently (others queue)")
	fs.BoolVar(&o.pprof, "pprof", false, "campaign server: mount net/http/pprof under /debug/pprof")
	fs.StringVar(&o.opsTracePath, "ops-trace", "", "write the sharded sweep's wall-clock supervisor timeline (Chrome trace) to this path")
	fs.BoolVar(&o.noOps, "no-ops", false, "campaign server: disable the wall-clock operational telemetry plane")
	fs.DurationVar(&o.opsSample, "ops-sample", 10*time.Second, "campaign server: runtime self-sample interval (goroutines, heap, GC, fds)")
	return o
}

// validateCLI rejects nonsensical flag combinations up front with
// actionable messages, before any journal or telemetry state is touched.
// It guards the CLI only — run() keeps accepting zero values so it stays
// directly drivable from tests.
func validateCLI(o options) error {
	if o.workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d (use -workers 1 to run the sweep on one worker)", o.workers)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d (0 runs each benchmark once)", o.retries)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v (0 disables the per-benchmark limit)", o.timeout)
	}
	if o.shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", o.shards)
	}
	if o.shards > 1 {
		if !o.sweep {
			return fmt.Errorf("-shards %d needs -sweep: only a process sweep can be partitioned across worker processes", o.shards)
		}
		if o.journalFile() == "" {
			return fmt.Errorf("-shards needs a checkpoint journal: pass -o or -journal so shard segments have somewhere to merge")
		}
	}
	if o.flightrecSize != 0 {
		if err := live.CheckFlightCapacity(o.flightrecSize); err != nil {
			return fmt.Errorf("-flightrec-size: %v", err)
		}
	}
	if o.daemon != "" {
		if o.native {
			return fmt.Errorf("-daemon and -native are mutually exclusive: the daemon runs simulated campaigns submitted over HTTP")
		}
		if o.shardWorker {
			return fmt.Errorf("-daemon and -shard-worker are mutually exclusive: a shard worker cannot also be the server")
		}
		if o.maxJobs < 1 {
			return fmt.Errorf("-max-jobs must be at least 1, got %d", o.maxJobs)
		}
		if !o.noOps && o.opsSample <= 0 {
			return fmt.Errorf("-ops-sample must be positive, got %v (or pass -no-ops to disable operational telemetry)", o.opsSample)
		}
	}
	if o.opsTracePath != "" && o.shards < 2 {
		return fmt.Errorf("-ops-trace records the shard supervisor's wall-clock timeline and needs -shards of at least 2")
	}
	return nil
}

type options struct {
	system      string
	specPath    string
	native      bool
	watts       float64
	procs       int
	sweep       bool
	bench       string
	workers     int
	list        bool
	out         string
	placement   string
	faultsPath  string
	retries     int
	timeout     float64
	resume      bool
	journalPath string
	tracePath   string
	metricsPath string
	reportPath  string
	// Live telemetry (wall-clock plane; see internal/obs/live).
	serve         string
	progressEvery time.Duration
	eventsPath    string
	flightPath    string
	flightrecSize int
	cellPause     time.Duration
	// Campaign-server mode (wall-clock plane; see internal/campaign).
	// A non-empty daemon address turns this invocation into the
	// multi-tenant job server instead of running one campaign.
	daemon    string
	daemonDir string
	maxJobs   int
	pprof     bool
	// Operational telemetry (wall-clock plane; see internal/obs/ops).
	// opsTracePath asks a CLI sharded sweep for its supervisor timeline;
	// noOps inverts the daemon's default-on ops plane (zero value keeps
	// it enabled, so tests building options literals get it for free);
	// opsSample paces the daemon's runtime self-sampler.
	opsTracePath string
	noOps        bool
	opsSample    time.Duration
	// Sharded sweeps (wall-clock plane; see internal/shard). shards > 1
	// runs the sweep as supervised OS worker processes; shardWorker
	// switches this invocation into worker mode.
	shards       int
	shardTimeout time.Duration
	shardRetries int
	shardWorker  bool
	// worker overrides the shard-worker factory of both a sharded sweep
	// and the daemon — a test hook so e2e tests can re-enter the test
	// binary instead of exec'ing a real greenbench.
	worker campaign.WorkerFactory
	// interruptAfter aborts a sweep after N checkpointed cells — a test
	// hook simulating a killed process (the journal stays behind).
	interruptAfter int
	// onServe, when set, receives the live (or campaign) server's bound
	// address as soon as it is listening — a test hook for ephemeral-port
	// (:0) serving.
	onServe func(addr string)
	// daemonStop, when set, shuts the daemon down when closed — a test
	// hook standing in for SIGINT/SIGTERM.
	daemonStop chan struct{}
}

// traced reports whether any observability output was requested. The
// tracer only exists when it is: instrumentation is off by default and
// provably inert (see internal/obs).
func (o options) traced() bool {
	return o.tracePath != "" || o.metricsPath != "" || o.reportPath != ""
}

// liveEnabled reports whether any wall-clock telemetry was requested.
// Like tracing, the live plane only exists when asked for — and even
// then it is inert: results, trace and metrics stay byte-identical.
func (o options) liveEnabled() bool {
	return o.serve != "" || o.progressEvery > 0 || o.eventsPath != "" || o.flightPath != ""
}

// flightFile resolves where a flight-recorder dump lands: an explicit
// -flightrec wins, otherwise it derives from -o.
func (o options) flightFile() string {
	if o.flightPath != "" {
		return o.flightPath
	}
	if o.out != "" {
		return o.out + ".flightrec.json"
	}
	return "greenbench.flightrec.json"
}

// liveState bundles the wall-clock telemetry machinery for one
// invocation: the hub, the optional HTTP server, NDJSON event log,
// periodic progress printer, and the SIGINT flight-dump handler. All
// methods are safe on a nil *liveState (telemetry off).
type liveState struct {
	o      options
	hub    *live.Hub
	server *live.Server
	events *os.File
	log    *live.EventLog
	stop   chan struct{} // ends the progress ticker and signal handler
	sigs   chan os.Signal
}

// Hub returns the hub to thread into the suite (nil when telemetry is
// off — the scheduler and Tap treat that as "record nothing").
func (ls *liveState) Hub() *live.Hub {
	if ls == nil {
		return nil
	}
	return ls.hub
}

// setupLive starts the requested live plane. snapshot supplies /metrics
// with the campaign registry view (empty when the run is untraced).
func setupLive(o options, snapshot func() obs.Snapshot) (*liveState, error) {
	if !o.liveEnabled() {
		return nil, nil
	}
	flightCap := o.flightrecSize
	if flightCap == 0 {
		flightCap = live.DefaultFlightCapacity
	}
	ls := &liveState{o: o, hub: live.NewHub(live.WithFlightCapacity(flightCap)), stop: make(chan struct{})}
	if o.serve != "" {
		srv, err := live.NewServer(o.serve, ls.hub, snapshot)
		if err != nil {
			return nil, err
		}
		ls.server = srv
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics /progress /events)\n", srv.Addr())
		if o.onServe != nil {
			o.onServe(srv.Addr())
		}
	}
	if o.eventsPath != "" {
		f, err := os.Create(o.eventsPath)
		if err != nil {
			ls.shutdown()
			return nil, err
		}
		ls.events = f
		ls.log = live.StartEventLog(ls.hub.Bus(), f, 1024)
	}
	if o.progressEvery > 0 {
		go func() {
			t := time.NewTicker(o.progressEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintln(os.Stderr, ls.hub.Progress().String())
				case <-ls.stop:
					return
				}
			}
		}()
	}
	// A SIGINT mid-campaign dumps the flight recorder before dying, so an
	// interrupted sweep leaves its last moments on disk next to the
	// journal it also leaves behind.
	ls.sigs = make(chan os.Signal, 1)
	signal.Notify(ls.sigs, os.Interrupt)
	go func() {
		select {
		case <-ls.sigs:
			ls.dump("sigint")
			os.Exit(130)
		case <-ls.stop:
		}
	}()
	return ls, nil
}

// dump writes the flight recorder to the resolved dump path.
func (ls *liveState) dump(reason string) {
	if ls == nil {
		return
	}
	path := ls.o.flightFile()
	if err := ls.hub.DumpFlight(path, reason); err != nil {
		fmt.Fprintf(os.Stderr, "greenbench: flight dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s (flight recorder, reason: %s)\n", path, reason)
}

// shutdown tears the live plane down: final progress line, server close,
// event-log flush.
func (ls *liveState) shutdown() {
	if ls == nil {
		return
	}
	signal.Stop(ls.sigs)
	close(ls.stop)
	if ls.o.progressEvery > 0 {
		fmt.Fprintln(os.Stderr, ls.hub.Progress().String())
	}
	if ls.server != nil {
		ls.server.Close()
	}
	if ls.log != nil {
		ls.log.Close()
		if n := ls.log.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "greenbench: event log dropped %d event(s) (writer too slow)\n", n)
		}
	}
	if ls.events != nil {
		ls.events.Close()
	}
}

// resolve settles the campaign the flags describe. The flags become a
// campaign.JobSpec — the body a POST /jobs would carry, with -spec and
// -faults loaded inline — and resolve through the daemon's path, so the
// CLI and the server validate, default and expand a campaign alike. Only
// -cellpause bypasses the spec, to keep its full duration precision.
func (o options) resolve() (*campaign.Resolved, error) {
	js := campaign.JobSpec{
		System: o.system, Sweep: o.sweep, Procs: o.procs, Placement: o.placement,
		Workers: o.workers, Shards: o.shards, Retries: o.retries, TimeoutSeconds: o.timeout,
	}
	if o.bench != "" {
		js.Benchmarks = strings.Split(o.bench, ",")
	}
	var err error
	if o.specPath != "" {
		if js.Spec, err = cluster.LoadSpec(o.specPath); err != nil {
			return nil, err
		}
	}
	if o.faultsPath != "" {
		if js.Faults, err = faults.Load(o.faultsPath); err != nil {
			return nil, err
		}
	}
	job, err := js.Resolve()
	if err != nil {
		return nil, err
	}
	job.CellPause = o.cellPause
	return job, nil
}

// listWorkloads prints the registry to w: every benchmark -bench
// accepts. It returns the first write error.
func listWorkloads(w io.Writer) error {
	bw := bufio.NewWriter(w)
	inPaper := map[string]bool{}
	for _, n := range suite.PaperOrder() {
		inPaper[n] = true
	}
	inExtended := map[string]bool{}
	for _, n := range suite.ExtendedOrder {
		inExtended[n] = true
	}
	for _, name := range suite.Workloads() {
		wl, ok := bench.Lookup(name)
		if !ok {
			return fmt.Errorf("registry lists unknown workload %q", name)
		}
		var sets []string
		if inPaper[name] {
			sets = append(sets, "paper")
		}
		if inExtended[name] {
			sets = append(sets, "extended")
		}
		line := fmt.Sprintf("%-13s %s", name, wl.Metric())
		if len(sets) > 0 {
			line += "  (" + strings.Join(sets, ", ") + ")"
		}
		fmt.Fprintln(bw, line)
	}
	return bw.Flush()
}

func run(o options) error {
	// Worker mode: this process is one shard of a supervised sweep. Its
	// assignment arrives on stdin, it heartbeats on stdout, and it never
	// writes user-facing output — the parent does.
	if o.shardWorker {
		return campaign.RunShardWorker(os.Stdin, os.Stdout)
	}
	if o.list {
		return listWorkloads(os.Stdout)
	}
	if o.native {
		return runNative(o)
	}
	if o.daemon != "" {
		return runDaemon(o)
	}
	job, err := o.resolve()
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if o.traced() {
		tracer = obs.NewTracer()
	}
	snapshot := func() obs.Snapshot {
		if tracer == nil {
			return obs.Snapshot{}
		}
		return tracer.Registry().Snapshot()
	}
	ls, err := setupLive(o, snapshot)
	if err != nil {
		return err
	}
	defer ls.shutdown()
	defer func() {
		if p := recover(); p != nil {
			ls.dump(fmt.Sprintf("panic: %v", p))
			panic(p)
		}
	}()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	cs := job.CampaignSpec()
	cs.JournalPath = o.journalFile()
	cs.Resume = o.resume
	cs.Trace = tracer
	cs.Logf = logf
	cs.Render = func(results []*suite.Result) error {
		// Without -o the summary is the campaign's only output, so a
		// failed write is an error; the artefacts are written either way.
		printErr := printResults(os.Stdout, results)
		// campaign.Artifacts is the single results-to-disk code path,
		// shared with the daemon: that is what makes a job submitted
		// over HTTP byte-identical to the same campaign run here.
		return errors.Join(printErr, campaign.Artifacts{
			Results:   o.out,
			Trace:     o.tracePath,
			Metrics:   o.metricsPath,
			Report:    o.reportPath,
			ReportOut: os.Stdout,
			Logf:      logf,
		}.Write(tracer, results))
	}
	if hub := ls.Hub(); hub != nil {
		cs.Live = hub
	}
	if o.interruptAfter > 0 {
		cs.AfterCell = func(done int64) error {
			if done >= int64(o.interruptAfter) {
				return fmt.Errorf("sweep interrupted after %d cell(s) (test hook)", done)
			}
			return nil
		}
	}
	if o.shards > 1 {
		cs.Supervise = func(axis []int) error {
			return superviseShards(o, job, axis, ls)
		}
	}
	outcome, err := suite.RunCampaign(cs)
	if err != nil {
		ls.dump("abort: " + err.Error())
		return err
	}
	if outcome.JournalKept != "" {
		fmt.Fprintf(os.Stderr,
			"%d cell(s) quarantined; journal %s kept — re-run with -resume to retry them\n",
			outcome.Quarantined, outcome.JournalKept)
	}
	return nil
}

// printResults renders the per-run summary lines of a campaign to w and
// returns the first write error.
func printResults(w io.Writer, results []*suite.Result) error {
	bw := bufio.NewWriter(w)
	for _, r := range results {
		header := fmt.Sprintf("%s procs=%d placement=%s", r.System, r.Procs, r.Placement)
		if r.Degraded {
			header += "  [DEGRADED]"
		}
		fmt.Fprintln(bw, header)
		for _, b := range r.Runs {
			m := b.Measurement
			if b.Status == suite.StatusQuarantined {
				fmt.Fprintf(bw, "  %-7s QUARANTINED (shard worker lost): %s\n",
					m.Benchmark, b.Error)
				continue
			}
			if !b.OK() {
				fmt.Fprintf(bw, "  %-7s FAILED after %d attempt(s): %s\n",
					m.Benchmark, b.Retries+1, b.Error)
				continue
			}
			line := fmt.Sprintf("  %-7s perf=%.5g %s  power=%s  time=%s  energy=%s",
				m.Benchmark, m.Performance, m.Metric, m.Power, m.Time, m.EnergyJoules())
			if b.Status == suite.StatusRecovered {
				line += fmt.Sprintf("  [recovered after %d retry(ies), %s wasted]",
					b.Retries, b.WastedTime)
			}
			if b.GapsFilled > 0 || b.OutliersRejected > 0 {
				line += fmt.Sprintf("  [meter repair: %d gap(s), %d outlier(s)]",
					b.GapsFilled, b.OutliersRejected)
			}
			fmt.Fprintln(bw, line)
		}
	}
	return bw.Flush()
}

// journalFile resolves the sweep journal path: an explicit -journal wins,
// otherwise it is derived from -o. Without either there is nothing durable
// to checkpoint against.
func (o options) journalFile() string {
	if o.journalPath != "" {
		return o.journalPath
	}
	if o.out != "" {
		return o.out + ".journal"
	}
	return ""
}

// runNative executes the real suite on the host and writes it in the same
// JSON format, so cmd/tgi can consume host runs and simulated runs alike.
func runNative(o options) error {
	res, err := native.Run(native.Config{Power: units.Watts(o.watts), Procs: o.procs})
	if err != nil {
		return err
	}
	r := &suite.Result{System: "host", Procs: o.procs, Placement: "native"}
	bw := bufio.NewWriter(os.Stdout)
	for _, m := range res.Measurements {
		fmt.Fprintf(bw, "  %-13s perf=%.5g %s  time=%s  (%s)\n",
			m.Benchmark, m.Performance, m.Metric, m.Time, res.Details[m.Benchmark])
		r.Runs = append(r.Runs, suite.BenchmarkRun{Measurement: m})
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if o.out != "" {
		if err := suite.SaveJSON(o.out, []*suite.Result{r}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", o.out)
	}
	return nil
}
