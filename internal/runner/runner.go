// Package runner fans independent simulation runs out across a
// bounded worker pool while keeping results byte-for-byte
// deterministic. The paper's evaluation is a large grid of independent
// cells (every figure bar is its own sim.Run), so the sweep
// parallelizes trivially: each cell carries its own scheduler, its own
// freshly built applications and its own config, and aggregation
// always happens in submission order, never completion order.
//
// The runner also attaches run-level observability to every batch: a
// Report records per-cell wall time, simulated quanta, bus-utilization
// summaries and worker occupancy, and a Metrics accumulator merges the
// Reports of a whole figure sweep for cmd/figures to print and tests
// to assert on.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Cell is one independent simulation run. Cells must not share mutable
// state: sim.Run mutates both the scheduler and the applications, so
// every cell carries fresh instances (exactly how the serial
// experiment code already built its runs).
type Cell struct {
	// Label identifies the cell in metrics and error messages, e.g.
	// "fig2/LQ/CG/2Apps+4BBMA".
	Label string
	// Config is the cell's simulation configuration.
	Config sim.Config
	// Scheduler runs the cell's workload; owned by the cell. May be nil
	// when NewScheduler is set, in which case the cell builds its
	// scheduler lazily at run time.
	Scheduler sched.Scheduler
	// NewScheduler builds the cell's scheduler lazily, at run time,
	// when the Scheduler field is nil.
	NewScheduler func() (sched.Scheduler, error)
	// Apps is the cell's workload; owned by the cell. The slice is
	// retained so callers can inspect mutated state (e.g. antagonist
	// counters via sim.MicrobenchRates) after the batch completes.
	Apps []*workload.App
	// Run, when non-nil, replaces the default sim.Run invocation —
	// used by tests and by callers with non-simulation work to fan out.
	Run func() (sim.Result, error)
}

func (c Cell) run() (sim.Result, error) {
	if c.Run != nil {
		return c.Run()
	}
	s := c.Scheduler
	if s == nil && c.NewScheduler != nil {
		var err error
		if s, err = c.NewScheduler(); err != nil {
			return sim.Result{}, err
		}
	}
	return sim.Run(c.Config, s, c.Apps)
}

// CellStat is the run-level record of one executed cell.
type CellStat struct {
	Label string
	// Wall is the host wall-clock time the cell took.
	Wall time.Duration
	// Quanta is the number of scheduler quanta the cell simulated.
	Quanta int
	// SimTime is the cell's simulated end time.
	SimTime units.Time
	// BusUtilization is the cell's mean bus utilization over quanta.
	BusUtilization float64
	// Err is the cell's failure, if any.
	Err error
}

// Report is the run-level observability of one batch of cells.
type Report struct {
	// Workers is the pool bound the batch ran under.
	Workers int
	// PeakOccupancy is the maximum number of workers observed busy at
	// the same time.
	PeakOccupancy int
	// Wall is the batch's host wall-clock time.
	Wall time.Duration
	// Cells holds per-cell stats, in submission order.
	Cells []CellStat
}

// CellWall sums the per-cell wall times — the serial-equivalent cost
// of the batch.
func (r Report) CellWall() time.Duration {
	var sum time.Duration
	for _, c := range r.Cells {
		sum += c.Wall
	}
	return sum
}

// TotalQuanta sums the simulated quanta across cells.
func (r Report) TotalQuanta() int {
	var sum int
	for _, c := range r.Cells {
		sum += c.Quanta
	}
	return sum
}

// TotalSimTime sums the simulated time across cells.
func (r Report) TotalSimTime() units.Time {
	var sum units.Time
	for _, c := range r.Cells {
		sum += c.SimTime
	}
	return sum
}

// MeanBusUtilization is the quanta-weighted mean bus utilization over
// the batch.
func (r Report) MeanBusUtilization() float64 {
	var quanta float64
	var weighted float64
	for _, c := range r.Cells {
		quanta += float64(c.Quanta)
		weighted += c.BusUtilization * float64(c.Quanta)
	}
	if quanta == 0 {
		return 0
	}
	return weighted / quanta
}

// Failed counts cells that returned an error.
func (r Report) Failed() int {
	n := 0
	for _, c := range r.Cells {
		if c.Err != nil {
			n++
		}
	}
	return n
}

// FirstErr returns the first error in submission order (not completion
// order), so error reporting is as deterministic as the results.
func (r Report) FirstErr() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Speedup is the ratio of serial-equivalent cost to actual wall time —
// the effective parallelism the batch achieved.
func (r Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.CellWall()) / float64(r.Wall)
}

// Workers resolves a worker bound: n if positive, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the cells across at most workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the results in
// submission order. Every cell is attempted even if an earlier one
// fails; the returned error is the first failure in submission order,
// with the per-cell errors preserved in the Report. Results are
// identical at any worker count: cells are independent and the
// simulator is deterministic, so execution order cannot leak into the
// output.
func Run(workers int, cells []Cell) ([]sim.Result, Report, error) {
	w := Workers(workers)
	if w > len(cells) {
		w = len(cells)
	}
	if w < 1 {
		w = 1
	}
	rep := Report{Workers: w, Cells: make([]CellStat, len(cells))}
	results := make([]sim.Result, len(cells))
	start := time.Now()
	var next atomic.Int64
	var busy, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(cells) {
					return
				}
				cur := busy.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				c := cells[idx]
				t0 := time.Now()
				res, err := c.run()
				if err != nil {
					err = fmt.Errorf("runner: cell %d (%s): %w", idx, c.Label, err)
				}
				results[idx] = res
				rep.Cells[idx] = CellStat{
					Label:          c.Label,
					Wall:           time.Since(t0),
					Quanta:         res.Quanta,
					SimTime:        res.EndTime,
					BusUtilization: res.MeanBusUtilization,
					Err:            err,
				}
				busy.Add(-1)
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	rep.PeakOccupancy = int(peak.Load())
	return results, rep, rep.FirstErr()
}
