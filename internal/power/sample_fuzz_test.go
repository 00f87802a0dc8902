package power

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/series"
	"repro/internal/sim"
	"repro/internal/units"
)

// referenceSample is the meter's sampling loop as it was before the draw
// cache and the trace cursor: it restarts the random stream at every
// call and finds each sample's power with interpolate. The cached
// sampler must reproduce it bit for bit.
func referenceSample(cfg MeterConfig, exact *series.Trace) (*series.Trace, error) {
	start, end, err := exact.Span()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	out := series.New(int(float64(end-start)/float64(cfg.Interval)) + 2)
	for at := start; ; at += cfg.Interval {
		clamped := at
		last := false
		if clamped >= end {
			clamped, last = end, true
		}
		p, err := interpolate(exact, clamped)
		if err != nil {
			return nil, err
		}
		v := float64(p)
		if cfg.NoiseStdDev > 0 {
			v += rng.NormAt(0, cfg.NoiseStdDev)
		}
		if cfg.GlitchRate > 0 && rng.Float64() < cfg.GlitchRate {
			v += rng.NormAt(0, cfg.GlitchWatts)
		}
		if q := cfg.QuantumWatts; q > 0 {
			v = float64(int64(v/q+0.5)) * q
		}
		if v < 0 {
			v = 0
		}
		drop := cfg.DropRate > 0 && rng.Float64() < cfg.DropRate
		if drop && at != start && !last { //greenvet:allow floateq -- boundary samples are identified by exact virtual timestamps
			continue
		}
		if err := out.Append(clamped, units.Watts(v)); err != nil {
			return nil, err
		}
		if last {
			break
		}
	}
	return out, nil
}

// interpolate returns the linearly-interpolated power of t at time at.
// Outside the span it clamps to the boundary sample.
func interpolate(t *series.Trace, at units.Seconds) (units.Watts, error) {
	samples := t.Samples()
	n := len(samples)
	if n == 0 {
		return 0, series.ErrTooFew
	}
	if at <= samples[0].At {
		return samples[0].Power, nil
	}
	if at >= samples[n-1].At {
		return samples[n-1].Power, nil
	}
	i := sort.Search(n, func(k int) bool { return samples[k].At >= at })
	a, b := samples[i-1], samples[i]
	if b.At == a.At { //greenvet:allow floateq -- exact duplicate-timestamp identity, not a tolerance test
		return b.Power, nil
	}
	frac := float64(at-a.At) / float64(b.At-a.At)
	return a.Power + units.Watts(frac)*(b.Power-a.Power), nil
}

func TestInterpolate(t *testing.T) {
	tr := series.New(2)
	if err := tr.Append(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(10, 200); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   float64
		want float64
	}{
		{-5, 100}, // clamp left
		{0, 100},
		{5, 150},
		{10, 200},
		{99, 200}, // clamp right
	}
	for _, c := range cases {
		got, err := interpolate(tr, units.Seconds(c.at))
		if err != nil || float64(got) != c.want {
			t.Errorf("interpolate(%v) = %v, %v; want %v", c.at, got, err, c.want)
		}
	}
}

// FuzzMeterSample checks the cached sampler against referenceSample,
// and the folded sampler against the traced one.
// Each three bytes of data make one exact sample: a time step of byte/4
// seconds after the previous one (so timestamps may repeat) and a power
// of int16/8 watts (so the negative clamp is reached). One meter samples
// a short, a long and the short trace again, is reconfigured to a second
// seed, and samples the long, the short and the long trace again; every
// sampled trace must equal a fresh reference run of its config bit for
// bit, and folding the same trace must give its energy, mean, peak and
// sample count bit for bit. That covers a cache extended past what an
// earlier trace drew, a cache read only in part, and a cache emptied by
// Reconfigure. Configs the meter refuses are skipped; so are traces
// that would take more than 4096 samples, except that one beyond
// MaxSamples must be refused by both samplers.
func FuzzMeterSample(f *testing.F) {
	ramp := []byte{0, 0x07, 0xd0, 4, 0x0f, 0xa0, 9, 0x0f, 0xa0, 0, 0x03, 0xe8, 255, 0x03, 0xe8, 3, 0xff, 0x00}
	f.Add(ramp, 0.0, uint64(1), uint64(2), 1.0, 0.1, 0.5, 0.0, 0.0, 0.0, true)
	f.Add(ramp, 2.5, uint64(7), uint64(7), 0.3, 0.0, 2.0, 0.2, 400.0, 0.3, true)
	f.Add(ramp, -10.0, uint64(3), uint64(99), 1.7, 0.5, 0.0, 0.0, 0.0, 0.5, false)
	f.Add(ramp, 0.0, uint64(5), uint64(6), 0.05, 0.0, 0.0, 0.9, 60.0, 0.0, true)
	f.Add([]byte{1, 0, 0}, 0.0, uint64(1), uint64(2), 1.0, 0.1, 0.5, 0.1, 50.0, 0.1, true)
	f.Add(ramp, 0.0, uint64(1), uint64(2), 1e-9, 0.1, 0.5, 0.0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, data []byte, start float64, seed, reseed uint64,
		interval, quantum, noise, glitchRate, glitchWatts, dropRate float64, reuse bool) {
		if !(math.Abs(start) <= 1e6) {
			return
		}
		short := sampleTrace(t, data[:len(data)/2], start)
		long := sampleTrace(t, bytes.Repeat(data, 3), start)
		cfg := MeterConfig{Interval: units.Seconds(interval), QuantumWatts: quantum, NoiseStdDev: noise,
			Seed: seed, DropRate: dropRate, GlitchRate: glitchRate, GlitchWatts: glitchWatts}
		mt, err := NewMeter(cfg)
		if err != nil {
			return
		}
		if s, e, err := long.Span(); err == nil && float64(e-s)/interval > 4096 {
			if float64(e-s)/interval > MaxSamples-2 {
				if _, err := mt.Sample(long); err == nil {
					t.Fatalf("Sample took more than %d samples", MaxSamples)
				}
				if _, _, err := mt.sample(long, false); err == nil {
					t.Fatalf("the folded sampler took more than %d samples", MaxSamples)
				}
			}
			return
		}
		if reuse {
			mt.ReuseSampleBuffer()
		}
		check := func(cfg MeterConfig, exact *series.Trace) {
			t.Helper()
			want, wantErr := referenceSample(cfg, exact)
			got, err := mt.Sample(exact)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("Sample error %v, reference error %v", err, wantErr)
			}
			if err != nil {
				return
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d samples, reference %d", got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				g, w := got.At(i), want.At(i)
				if math.Float64bits(float64(g.At)) != math.Float64bits(float64(w.At)) ||
					math.Float64bits(float64(g.Power)) != math.Float64bits(float64(w.Power)) {
					t.Fatalf("sample %d is %v, reference %v", i, g, w)
				}
			}
			_, fold, err := mt.sample(exact, false)
			if err != nil {
				t.Fatalf("folded sampler: %v", err)
			}
			checkFold(t, fold, want)
		}
		for _, exact := range []*series.Trace{short, long, short} {
			check(cfg, exact)
		}
		cfg.Seed = reseed
		if err := mt.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		for _, exact := range []*series.Trace{long, short, long} {
			check(cfg, exact)
		}
	})
}

// sampleTrace decodes FuzzMeterSample's bytes into an ordered exact trace.
func sampleTrace(t *testing.T, data []byte, start float64) *series.Trace {
	tr := series.New(len(data) / 3)
	at := units.Seconds(start)
	for i := 0; i+3 <= len(data); i += 3 {
		if i > 0 {
			at += units.Seconds(data[i]) / 4
		}
		p := units.Watts(int16(uint16(data[i+1])<<8|uint16(data[i+2]))) / 8
		if err := tr.Append(at, p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}
