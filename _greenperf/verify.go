package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/suite"
)

// schemes are the four TGI weighting schemes the gate recomputes.
var schemes = []core.Scheme{core.ArithmeticMean, core.TimeWeighted, core.EnergyWeighted, core.PowerWeighted}

// artifactFiles are the artefact file names a campaign may render.
var artifactFiles = []string{campaign.ResultsFile, campaign.TraceFile, campaign.MetricsFile, campaign.ReportFile}

// tgiCell is one result's TGI under one scheme, or the error computing
// it (a result whose benchmarks all failed has no TGI).
type tgiCell struct {
	value float64
	err   string
}

// reference is the correctness gate of one workload and seed: the
// artefacts a campaign must reproduce byte for byte, and the TGI of every
// result under every scheme against the reference system.
type reference struct {
	files   map[string][]byte
	refMeas []core.Measurement
	tgi     [][]tgiCell
}

// setup builds the reference n times in fresh directories under dir and
// returns it with each build's wall time. Every build must agree with
// the first: the pipeline is deterministic.
func setup(in *inputs, dir string, n int) (*reference, []float64, error) {
	var ref *reference
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		r, err := buildReference(in, sub)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := os.RemoveAll(sub); err != nil {
			return nil, nil, err
		}
		if ref == nil {
			ref = r
		} else if err := r.sameAs(ref); err != nil {
			return nil, nil, fmt.Errorf("setup %d disagrees with setup 0: %w", i, err)
		}
	}
	return ref, times, nil
}

// buildReference runs the workload's campaign once into dir, keeps its
// artefacts, measures the reference system (SystemG at full size, the
// paper's reference machine) on the same benchmark list, and tabulates
// the campaign's TGI under every scheme.
func buildReference(in *inputs, dir string) (*reference, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tracer := in.newTracer()
	out, err := suite.RunCampaign(in.campaignSpec(dir, tracer, workers))
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}
	files, err := readArtifacts(dir)
	if err != nil {
		return nil, err
	}
	refOut, err := suite.RunCampaign(suite.CampaignSpec{Spec: cluster.SystemG(), Benchmarks: in.benchmarks})
	if err != nil {
		return nil, fmt.Errorf("reference system: %w", err)
	}
	ref := &reference{files: files, refMeas: refOut.Results[0].Measurements()}
	if err := ref.checkSelf(); err != nil {
		return nil, err
	}
	ref.tgi = tgiTable(out.Results, ref.refMeas)
	return ref, nil
}

// readArtifacts reads every artefact present in dir.
func readArtifacts(dir string) (map[string][]byte, error) {
	files := map[string][]byte{}
	for _, name := range artifactFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		files[name] = b
	}
	return files, nil
}

// tgiTable computes every result's TGI under every scheme. Degraded
// results use the partial-suite form, as cmd/tgi does.
func tgiTable(results []*suite.Result, ref []core.Measurement) [][]tgiCell {
	table := make([][]tgiCell, len(results))
	for i, r := range results {
		row := make([]tgiCell, len(schemes))
		for k, s := range schemes {
			var c *core.Components
			var err error
			if r.Degraded {
				c, err = core.ComputePartial(r.Measurements(), ref, s, nil, r.Benchmarks())
			} else {
				c, err = core.Compute(r.Measurements(), ref, s, nil)
			}
			if err != nil {
				row[k].err = err.Error()
			} else {
				row[k].value = c.TGI
			}
		}
		table[i] = row
	}
	return table
}

// checkSelf checks that the reference system's TGI against itself is 1
// under every scheme (up to rounding in the weight normalisation).
func (r *reference) checkSelf() error {
	for _, s := range schemes {
		c, err := core.Compute(r.refMeas, r.refMeas, s, nil)
		if err != nil {
			return fmt.Errorf("self TGI (%v): %w", s, err)
		}
		if math.Abs(c.TGI-1) > 1e-12 {
			return fmt.Errorf("self TGI (%v) is %.17g, want 1", s, c.TGI)
		}
	}
	return nil
}

// sameAs reports the first difference between two references.
func (r *reference) sameAs(o *reference) error {
	if err := sameFiles(r.files, o.files); err != nil {
		return err
	}
	return sameTGI(r.tgi, o.tgi)
}

func sameFiles(got, want map[string][]byte) error {
	for _, name := range artifactFiles {
		g, gok := got[name]
		w, wok := want[name]
		if gok != wok {
			return fmt.Errorf("%s: present %t, want %t", name, gok, wok)
		}
		if !bytes.Equal(g, w) {
			return fmt.Errorf("%s: %d bytes differ from the %d-byte reference", name, len(g), len(w))
		}
	}
	return nil
}

func sameTGI(got, want [][]tgiCell) error {
	if len(got) != len(want) {
		return fmt.Errorf("TGI over %d results, want %d", len(got), len(want))
	}
	for i := range got {
		for k := range schemes {
			if got[i][k] != want[i][k] {
				return fmt.Errorf("result %d %v TGI %+v, want %+v", i, schemes[k], got[i][k], want[i][k])
			}
		}
	}
	return nil
}

// check is the gate one campaign passes: its artefacts in dir are byte
// identical to the reference, its results reproduce the reference TGI
// under all four schemes, and the reference system still scores 1
// against itself.
func (r *reference) check(dir string, results []*suite.Result) error {
	files, err := readArtifacts(dir)
	if err != nil {
		return err
	}
	if err := sameFiles(files, r.files); err != nil {
		return err
	}
	if err := sameTGI(tgiTable(results, r.refMeas), r.tgi); err != nil {
		return err
	}
	return r.checkSelf()
}
