package bench

import (
	"repro/internal/beff"
	"repro/internal/cluster"
	"repro/internal/dgemm"
	"repro/internal/fft"
	"repro/internal/hpl"
	"repro/internal/iozone"
	"repro/internal/ptrans"
	"repro/internal/randomaccess"
	"repro/internal/stream"
)

// The built-in workloads: one adapter per benchmark package. Each builds
// its package's default model configuration from (spec, procs), applies
// the run's placement, and simulates.
func init() {
	Register(hplWorkload{})
	Register(dgemmWorkload{})
	Register(streamWorkload{})
	Register(ptransWorkload{})
	Register(randomAccessWorkload{})
	Register(fftWorkload{})
	Register(iozoneWorkload{})
	Register(beffWorkload{})
}

type hplWorkload struct{}

func (hplWorkload) Name() string   { return HPL }
func (hplWorkload) Metric() string { return "GFLOPS" }
func (hplWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := hpl.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := hpl.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.Perf) / 1e9, Profile: res.Profile}, nil
}

type dgemmWorkload struct{}

func (dgemmWorkload) Name() string   { return DGEMM }
func (dgemmWorkload) Metric() string { return "GFLOPS" }
func (dgemmWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := dgemm.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := dgemm.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.Perf) / 1e9, Profile: res.Profile}, nil
}

type streamWorkload struct{}

func (streamWorkload) Name() string   { return STREAM }
func (streamWorkload) Metric() string { return "MBPS" }
func (streamWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := stream.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := stream.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.Aggregate) / 1e6, Profile: res.Profile}, nil
}

type ptransWorkload struct{}

func (ptransWorkload) Name() string   { return PTRANS }
func (ptransWorkload) Metric() string { return "MBPS" }
func (ptransWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := ptrans.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := ptrans.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.Rate) / 1e6, Profile: res.Profile}, nil
}

type randomAccessWorkload struct{}

func (randomAccessWorkload) Name() string   { return RandomAccess }
func (randomAccessWorkload) Metric() string { return "GUPS" }
func (randomAccessWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := randomaccess.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := randomaccess.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: res.GUPS, Profile: res.Profile}, nil
}

type fftWorkload struct{}

func (fftWorkload) Name() string   { return FFT }
func (fftWorkload) Metric() string { return "GFLOPS" }
func (fftWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := fft.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := fft.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.Perf) / 1e9, Profile: res.Profile}, nil
}

type iozoneWorkload struct{}

func (iozoneWorkload) Name() string   { return IOzone }
func (iozoneWorkload) Metric() string { return "MBPS" }

// Simulate runs the sweep's IOzone configuration: one I/O client per
// socket's worth of cores (clamped to the node count) — at 32 of Fire's
// 128 cores the write test runs 4 clients, so the I/O sweep covers the
// same 1…8-client range as the node axis of the paper's Figure 4 — and
// every process contributes a fixed I/O volume (4.5 GB), so the test's
// duration scales with the sweep the way the compute benchmarks' do.
func (iozoneWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	perClient := spec.Node.CPU.CoresPerSocket
	ioClients := (env.Procs + perClient - 1) / perClient
	if ioClients > spec.Nodes {
		ioClients = spec.Nodes
	}
	cfg := iozone.DefaultModelConfig(spec, ioClients)
	cfg.FileBytesPerNode = 4.5e9 * float64(env.Procs) / float64(ioClients)
	cfg.Procs = env.Procs
	cfg.Scratch, cfg.Stack = env.Scratch.loads(), env.Scratch.stack()
	res, err := iozone.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{
		Perf:    float64(res.Aggregate) / 1e6,
		Profile: res.Profile,
		Engine:  &res.Engine,
	}, nil
}

type beffWorkload struct{}

func (beffWorkload) Name() string   { return Beff }
func (beffWorkload) Metric() string { return "MBPS" }
func (beffWorkload) Simulate(spec *cluster.Spec, env Env) (Simulated, error) {
	cfg := beff.DefaultModelConfig(spec, env.Procs)
	cfg.Placement = env.Placement
	cfg.Scratch = env.Scratch.loads()
	res, err := beff.Simulate(cfg)
	if err != nil {
		return Simulated{}, err
	}
	return Simulated{Perf: float64(res.RingRate) / 1e6, Profile: res.Profile}, nil
}
