// Package experiments reproduces every table and figure of the
// paper's evaluation, plus the ablations called out in DESIGN.md. Each
// experiment builds its workload from the registry, runs it through
// internal/sim on the simulated paper machine, and returns structured
// rows that cmd/figures renders and bench_test.go regenerates.
package experiments

import (
	"fmt"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/runner"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Machine overrides the simulated hardware (zero = paper machine).
	Machine machine.Config
	// LinuxSeeds are the seeds for the Linux baseline runs; the
	// reported baseline is the mean over seeds. Empty selects
	// DefaultLinuxSeeds.
	LinuxSeeds []int64
	// Sampling selects the CPU manager's estimator input.
	Sampling sim.SampleMode
	// Faults configures fault injection for every simulation cell the
	// experiment builds. The zero value is inert: no injector is
	// created and results are identical to a fault-free run.
	Faults faults.Config
	// PolicyOpts are applied to every bandwidth-aware policy built.
	PolicyOpts []sched.Option
	// Workers bounds the parallel runner's worker pool. Zero selects
	// GOMAXPROCS; 1 forces serial execution. Every cell carries its
	// own seed, scheduler and freshly built workload, and aggregation
	// happens in submission order, so results are identical at any
	// setting.
	Workers int
	// Metrics, when non-nil, accumulates run-level metrics (per-cell
	// wall time, simulated quanta, bus utilization, worker occupancy)
	// for every batch of simulations submitted through the runner.
	Metrics *runner.Metrics
}

// DefaultLinuxSeeds gives the baseline three runs to average over,
// since the 2.4 scheduler's mixing is order-dependent.
var DefaultLinuxSeeds = []int64{1, 2, 3}

func (o Options) machine() machine.Config {
	if o.Machine.NumCPUs == 0 {
		return machine.DefaultConfig()
	}
	return o.Machine
}

func (o Options) seeds() []int64 {
	if len(o.LinuxSeeds) == 0 {
		return DefaultLinuxSeeds
	}
	return o.LinuxSeeds
}

func (o Options) simConfig() sim.Config {
	return sim.Config{Machine: o.machine(), Sampling: o.Sampling, Faults: o.Faults}
}

func (o Options) capacity() units.Rate {
	return o.machine().Bus.Capacity
}

// WorkloadSet identifies the paper's three Section 5 workload
// families.
type WorkloadSet int

// The three experiment sets of Figure 2.
const (
	// SetBBMA: two application instances + four BBMA copies (Fig 2A) —
	// the policies on an already saturated bus.
	SetBBMA WorkloadSet = iota
	// SetNBBMA: two application instances + four nBBMA copies
	// (Fig 2B) — low-bandwidth companions available.
	SetNBBMA
	// SetMixed: two instances + two BBMA + two nBBMA (Fig 2C).
	SetMixed
)

func (s WorkloadSet) String() string {
	switch s {
	case SetBBMA:
		return "2Apps+4BBMA"
	case SetNBBMA:
		return "2Apps+4nBBMA"
	case SetMixed:
		return "2Apps+2BBMA+2nBBMA"
	default:
		return "unknown"
	}
}

// buildSet instantiates the workload for one application profile under
// the given set (fresh instances every call — sim mutates apps).
func buildSet(app workload.Profile, set WorkloadSet) []*workload.App {
	apps := []*workload.App{
		workload.NewApp(app, app.Name+"#1"),
		workload.NewApp(app, app.Name+"#2"),
	}
	nB, nN := 0, 0
	switch set {
	case SetBBMA:
		nB = 4
	case SetNBBMA:
		nN = 4
	case SetMixed:
		nB, nN = 2, 2
	}
	for i := 0; i < nB; i++ {
		apps = append(apps, workload.NewApp(workload.BBMA(), fmt.Sprintf("BBMA#%d", i+1)))
	}
	for i := 0; i < nN; i++ {
		apps = append(apps, workload.NewApp(workload.NBBMA(), fmt.Sprintf("nBBMA#%d", i+1)))
	}
	return apps
}

// runCells fans a batch of independent cells out through the parallel
// runner, records its report under name when metrics collection is on,
// and returns the results in submission order.
func (o Options) runCells(name string, cells []runner.Cell) ([]sim.Result, error) {
	results, rep, err := runner.Run(o.Workers, cells)
	if o.Metrics != nil {
		o.Metrics.Observe(name, rep)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// linuxCells builds one baseline cell per seed for the workload.
func linuxCells(opt Options, app workload.Profile, set WorkloadSet) []runner.Cell {
	var cells []runner.Cell
	for _, seed := range opt.seeds() {
		seed := seed
		cells = append(cells, runner.Cell{
			Label:  fmt.Sprintf("linux/%s/%s/seed%d", app.Name, set, seed),
			Config: opt.simConfig(),
			NewScheduler: func() (sched.Scheduler, error) {
				return sched.NewLinux(opt.machine().NumCPUs, seed), nil
			},
			Apps: buildSet(app, set),
		})
	}
	return cells
}

// meanLinuxFromResults averages the per-seed baseline runs.
func meanLinuxFromResults(app workload.Profile, set WorkloadSet, results []sim.Result) (units.Time, error) {
	var sum units.Time
	for _, res := range results {
		if res.TimedOut {
			return 0, fmt.Errorf("experiments: Linux run timed out for %s/%s", app.Name, set)
		}
		sum += res.MeanTurnaround()
	}
	return sum / units.Time(len(results)), nil
}

// meanLinuxTurnaround runs the workload under the Linux baseline for
// each seed and returns the mean of the per-run mean turnarounds.
func meanLinuxTurnaround(opt Options, app workload.Profile, set WorkloadSet) (units.Time, error) {
	results, err := opt.runCells(fmt.Sprintf("linux/%s/%s", app.Name, set), linuxCells(opt, app, set))
	if err != nil {
		return 0, err
	}
	return meanLinuxFromResults(app, set, results)
}

// improvement returns the paper's metric: percentage reduction of the
// mean turnaround relative to the baseline.
func improvement(baseline, policy units.Time) float64 {
	if baseline <= 0 {
		return 0
	}
	return float64(baseline-policy) / float64(baseline) * 100
}
