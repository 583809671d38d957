package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"busaware"
	"busaware/internal/experiments"
	"busaware/internal/runner"
	"busaware/internal/server"
)

// The figures workload regenerates everything `figures -fig all`
// produces, calling internal/experiments directly, back to back. It is
// the sim plane with no HTTP at all.

// figure is one step of a figure set, in `figures -fig all` order.
type figure struct {
	name string
	run  func(opt experiments.Options, seed int64) (any, error)
}

var figureSteps = []figure{
	{"cal", func(o experiments.Options, _ int64) (any, error) { return experiments.Calibrate(o) }},
	{"hit", func(experiments.Options, int64) (any, error) { return experiments.HitRates() }},
	{"1a", func(o experiments.Options, _ int64) (any, error) { return experiments.Figure1(o) }},
	{"1b", func(o experiments.Options, _ int64) (any, error) { return experiments.Figure1(o) }},
	{"2a", func(o experiments.Options, _ int64) (any, error) { return experiments.Figure2(experiments.SetBBMA, o) }},
	{"2b", func(o experiments.Options, _ int64) (any, error) { return experiments.Figure2(experiments.SetNBBMA, o) }},
	{"2c", func(o experiments.Options, _ int64) (any, error) { return experiments.Figure2(experiments.SetMixed, o) }},
	{"ablw", func(o experiments.Options, _ int64) (any, error) { return experiments.WindowAblation(o, nil) }},
	{"ablq", func(o experiments.Options, _ int64) (any, error) { return experiments.QuantumAblation(o, nil) }},
	{"ovh", func(o experiments.Options, _ int64) (any, error) { return experiments.ManagerOverhead(o, 0) }},
	{"zoo", func(o experiments.Options, _ int64) (any, error) { return experiments.SchedulerZoo(o, "BT") }},
	{"sampling", func(o experiments.Options, _ int64) (any, error) { return experiments.SamplingAblation(o, nil) }},
	// The seed picks the robustness study's random mixes.
	{"robust", func(o experiments.Options, seed int64) (any, error) { return experiments.Robustness(o, 20, seed) }},
	{"degr", func(o experiments.Options, _ int64) (any, error) { return experiments.Degradation(o, nil, 1) }},
	{"servers", func(o experiments.Options, _ int64) (any, error) { return experiments.ServerWorkloads(o) }},
	{"smt", func(o experiments.Options, _ int64) (any, error) { return experiments.SMTStudy(o) }},
}

// figureSet is the outcome of one full set.
type figureSet struct {
	digest  string // over every figure's rows, bit-exact
	golden  map[string]string
	metrics *runner.Metrics
}

// goldenFiles maps the figures checked against the golden test's files
// (internal/experiments/testdata) to those files.
var goldenFiles = map[string]string{
	"2c":   "figure2_mixed.golden",
	"ablw": "ablation_window.golden",
}

// formatGolden renders rows in the golden test's bit-exact format:
// raw int64 microseconds and hexadecimal floats.
func formatGolden(v any) string {
	var b strings.Builder
	switch rows := v.(type) {
	case []experiments.Fig2Row:
		for _, r := range rows {
			fmt.Fprintf(&b, "%s|%d|%d|%d|%x|%x\n", r.App,
				int64(r.LinuxTurnaround), int64(r.LQTurnaround), int64(r.QWTurnaround),
				r.LQImprovement, r.QWImprovement)
		}
	case []experiments.WindowAblationRow:
		for _, r := range rows {
			fmt.Fprintf(&b, "W%d|%x|%x|%x\n", r.Window, r.TrackingDistance, r.EstimateStdDev, r.RaytraceImprovement)
		}
	}
	return b.String()
}

// runFigureSet regenerates one full set on workers runner workers.
// When traced, each figure and the set record a span.
func runFigureSet(workers int, seed int64, tr *tracer, traced bool) (*figureSet, error) {
	out := &figureSet{golden: map[string]string{}, metrics: runner.NewMetrics()}
	opt := experiments.Options{Workers: workers, Metrics: out.metrics}
	h := sha256.New()
	var set span
	if traced {
		set = span{ID: tr.newID(), Name: spanSet, Start: tr.now()}
	}
	for _, f := range figureSteps {
		var s span
		if traced {
			s = span{ID: tr.newID(), Parent: set.ID, Name: spanFigure, Start: tr.now(), Tag: f.name}
		}
		v, err := f.run(opt, seed)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.name, err)
		}
		if traced {
			s.End = tr.now()
			tr.record(s)
		}
		// %v prints float64 in its shortest round-trip form, so the
		// digest is bit-exact.
		fmt.Fprintf(h, "%s %+v\n", f.name, v)
		if _, ok := goldenFiles[f.name]; ok {
			out.golden[f.name] = formatGolden(v)
		}
	}
	if traced {
		set.End = tr.now()
		tr.record(set)
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

type figuresInst struct {
	o      options
	dir    string
	tr     *tracer
	golden map[string]string
	ref    string
	// traced holds the sets of the last traced phase.
	traced []*figureSet
}

// setupFigures loads the goldens and runs one warm-up set, whose row
// digest every later set must reproduce.
func setupFigures(o options, dir string, tr *tracer) (instance, error) {
	f := &figuresInst{o: o, dir: dir, tr: tr, golden: map[string]string{}}
	for name, file := range goldenFiles {
		b, err := os.ReadFile(filepath.Join(o.root, "internal", "experiments", "testdata", file))
		if err != nil {
			return nil, err
		}
		f.golden[name] = string(b)
	}
	set, err := runFigureSet(o.clients, o.seed, tr, false)
	if err != nil {
		return nil, err
	}
	if !f.check(set) {
		return nil, fmt.Errorf("warm-up figure set failed its golden checks")
	}
	f.ref = set.digest
	return f, nil
}

// check compares a set against the goldens and the warm-up digest.
func (f *figuresInst) check(set *figureSet) bool {
	ok := true
	for name, want := range f.golden {
		if set.golden[name] != want {
			failf("figure %s rows differ from the golden file", name)
			ok = false
		}
	}
	if f.ref != "" && set.digest != f.ref {
		failf("figure set digest %s differs from the first set's %s", set.digest, f.ref)
		ok = false
	}
	return ok
}

func (f *figuresInst) passCells() int { return figureCells }

// figureCells is the number of runner cells in one figure set; a set
// that runs a different number fails its check.
const figureCells = 401

func (f *figuresInst) measure(d time.Duration, traced bool) (*phase, error) {
	f.tr.setOn(traced)
	defer f.tr.setOn(false)
	var sets []*figureSet
	var runErr error
	ph := closedLoop(1, d, 0, func(int64) (int, bool) {
		set, err := runFigureSet(f.o.clients, f.o.seed, f.tr, traced)
		if err != nil {
			runErr = err
			return 0, false
		}
		sets = append(sets, set)
		ok := f.check(set)
		if c := set.metrics.Total().Cells; c != figureCells {
			failf("figure set ran %d cells, want %d", c, figureCells)
			ok = false
		}
		return figureCells, ok
	})
	if runErr != nil {
		return nil, runErr
	}
	if traced {
		f.traced = sets
	}
	return ph, nil
}

func (f *figuresInst) layers(traced *phase) (map[string]float64, error) {
	vals := zeroLayers()
	var cells, cellWall, occupancy []float64
	for _, s := range f.traced {
		t := s.metrics.Total()
		cells = append(cells, float64(t.Cells))
		cellWall = append(cellWall, t.CellWall.Seconds())
		occupancy = append(occupancy, ratio(t.CellWall.Seconds(), t.Wall.Seconds()*float64(f.o.clients)))
	}
	vals["runner.cells"] = median(cells)
	vals["runner.cell_wall_s"] = median(cellWall)
	vals["runner.occupancy"] = median(occupancy)

	// The per-figure spans should account for the whole set.
	var shares []float64
	spans := f.tr.snapshot()
	sum := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == spanFigure {
			sum[s.Parent] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Name == spanSet {
			shares = append(shares, ratio(float64(sum[s.ID]), float64(s.dur())))
		}
	}
	vals["bench.layer_sum_ratio"] = median(shares)

	// Replay the Figure 1 and Figure 2 grids behind the scheduler
	// decorator and check each replay against the runner's record of
	// the same cell.
	grid := append(figure1Grid(), figure2Grid(true)...)
	reqs := make([]server.Request, len(grid))
	for i, c := range grid {
		reqs[i] = c.req
	}
	rs, err := replayCells(reqs)
	if err != nil {
		return nil, err
	}
	stats := map[string]runner.CellStat{}
	if len(f.traced) > 0 {
		for _, b := range f.traced[len(f.traced)-1].metrics.Batches() {
			if b.Name == "figure1" || strings.HasPrefix(b.Name, "figure2/") {
				for _, c := range b.Report.Cells {
					stats[c.Label] = c
				}
			}
		}
	}
	results := make([]busaware.Result, len(rs))
	for i, r := range rs {
		results[i] = r.res
		c, ok := stats[grid[i].label]
		if !ok || c.Quanta != r.res.Quanta || c.SimTime != r.res.EndTime || c.BusUtilization != r.res.MeanBusUtilization {
			failf("replay of %s differs from the figure run", grid[i].label)
			traced.failAll()
		}
	}
	simLayers(rs, vals)
	if err := probeLayers(f.dir, reqs, results, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

func (f *figuresInst) close() {}
