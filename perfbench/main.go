// Command perfbench is the repository's end-to-end benchmark. One
// process sets up and drives one named workload against the real
// packages: the figure sweep (internal/experiments on the parallel
// runner) or served cells behind the consistent-hash gateway
// (internal/server backends behind internal/gateway on loopback
// listeners, each backend with a tier-2 result store). It checks every
// output, and prints one JSON object as its last line of output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (see e2eMetrics);
// with -trace 1 the run is split into an untraced and a traced half and
// the metrics are the per-layer ones (see layerMetrics), computed from
// spans recorded around calls into each layer's public functions, a
// scheduler decorator replaying the same cells, and timed direct calls.
// Nothing is instrumented inside the program.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
//
// A failed output check makes the run print correct=false and exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// clients sizes the closed loop and the figure runner: nproc.
	clients int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median, and the last set-up is the one measured.
const setupRepeats = 3

func main() {
	var o options
	var trace int
	flag.StringVar(&o.root, "root", ".", "repository root (goldens are read and scratch files written under it)")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed (0 .. 2^31-1)")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.clients = runtime.NumCPU()
	if o.seed < 0 || o.seed >= 1<<31 {
		fatal(fmt.Errorf("seed %d out of range", o.seed))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("seconds must be positive"))
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	res, err := run(o, w)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupFunc builds one ready-to-measure instance of a workload. tr is
// nil for end-to-end runs: tracing wrappers are then not even built.
type setupFunc func(o options, dir string, tr *tracer) (instance, error)

// instance is a workload that has been set up.
type instance interface {
	// measure drives the workload for d with the tracer on or off.
	measure(d time.Duration, traced bool) (*phase, error)
	// layers computes the per-layer metrics after a traced phase.
	layers(traced *phase) (map[string]float64, error)
	// passCells is the number of cells in one pass (sweep_s).
	passCells() int
	close()
}

var workloads = map[string]setupFunc{
	"figures":      setupFigures,
	"serve-cold":   setupCold,
	"serve-warm":   setupWarm,
	"sweep-replay": setupSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark run: the end-to-end measurement, or with
// -trace 1 the untraced/traced pair plus the per-layer accounting.
func run(o options, setup setupFunc) (*result, error) {
	scratch := filepath.Join(o.root, ".bench_build", "run", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer func() {
		os.RemoveAll(scratch)
		// Commit the deletions before exiting (an fsync of the parent
		// directory commits the file system's journal): left to the
		// kernel, the metadata writes and discards of thousands of
		// freed store files land on the next run's file creation.
		if dir, err := os.Open(filepath.Dir(scratch)); err == nil {
			dir.Sync()
			dir.Close()
		}
	}()
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		var setups []float64
		var inst instance
		for i := 0; i < setupRepeats; i++ {
			if inst != nil {
				inst.close()
			}
			t0 := time.Now()
			var err error
			inst, err = setup(o, filepath.Join(scratch, fmt.Sprint(i)), nil)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer inst.close()
		ph, err := inst.measure(d, false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: the host withheld %.1f%% of the CPU time wanted during the measured phase (steal)\n", 100*ph.steal)
		return e2eResult(ph, median(setups), inst.passCells()), nil
	}

	tr := newTracer()
	inst, err := setup(o, filepath.Join(scratch, "t"), tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	plain, err := inst.measure(d/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := inst.measure(d/2, true)
	if err != nil {
		return nil, err
	}
	vals, err := inst.layers(traced)
	if err != nil {
		return nil, err
	}
	vals["client.p99_ms"] = plain.percentile(0.99)
	vals["bench.trace_overhead"] = traced.percentile(0.5)/plain.percentile(0.5) - 1
	vals["bench.steal_share"] = traced.steal
	if err := tr.writeFile(filepath.Join(o.root, ".bench_build", "trace", o.workload+".ndjson")); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   plain.failed+traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		res.Metrics[m.name] = metric{Value: finite(v), Unit: m.unit}
	}
	return res, nil
}

// e2eResult renders the end-to-end metrics of one measured phase.
func e2eResult(ph *phase, setupS float64, passCells int) *result {
	rate, p50, p90 := ph.summary()
	vals := map[string]float64{
		"setup_s":      setupS,
		"sweep_s":      ratio(float64(passCells), rate),
		"cells_per_s":  rate,
		"p50_ms":       p50,
		"p90_ms":       p90,
		"success_rate": 1 - float64(ph.failed)/float64(ph.attempted),
		"rss_peak_mb":  ph.rssMB,
	}
	res := &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{Value: finite(vals[m.name]), Unit: m.unit}
	}
	return res
}

// finite keeps the JSON encodable: a percentile that lands on a failed
// operation (recorded as +Inf so it can never read fast) is reported
// as a huge number.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}
