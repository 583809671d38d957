// Package machine models the paper's experimental platform: a
// dedicated 4-processor SMP (Hyperthreaded Xeons with hyperthreading
// disabled — the perfctr driver of the day could not virtualize
// counters for sibling threads) with per-processor 256KB L2 caches and
// one shared front-side bus.
//
// The machine executes placements: for each time slice the scheduler
// says which thread runs on which processor, and the machine advances
// every placed thread at the speed the bus model grants it, maintains
// cache-affinity state, charges migration costs, and accumulates each
// thread's virtual performance counters.
package machine

import (
	"errors"
	"fmt"

	"busaware/internal/bus"
	"busaware/internal/cache"
	"busaware/internal/perfctr"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Config describes the machine.
type Config struct {
	// NumCPUs is the processor count (4 on the paper's machine).
	NumCPUs int
	// Bus configures the shared front-side bus model.
	Bus bus.Config
	// L2 is the per-processor cache geometry (affinity bookkeeping).
	L2 cache.Config
	// MicroStep subdivides each Step so phase changes and migration
	// debt repayment inside a slice are resolved with reasonable
	// fidelity. Zero selects the default of 10ms.
	MicroStep units.Time
	// PollutionFrac is the fraction of a thread's migration penalty
	// charged when it resumes on its own processor after a *different*
	// thread ran there in between (the intervening thread evicted part
	// of its working set). Time-sharing is cheaper than migrating, but
	// not free — this is why LU CB and Water-nsqr suffer under any
	// multiprogramming in the paper.
	PollutionFrac float64

	// SMTSiblings enables simultaneous multithreading: logical
	// processors 2i and 2i+1 share physical core i. The paper disabled
	// hyperthreading (the perfctr driver of 2003 could not virtualize
	// counters for sibling threads) and named SMT as future work; set
	// SMTSiblings to 2 to explore it. 0 and 1 mean no sharing.
	SMTSiblings int
	// SMTEfficiency is each sibling's speed multiplier when both
	// logical processors of a core are busy. Hyperthreaded Xeons of
	// the era gained ~25% aggregate throughput from a busy sibling
	// pair, i.e. ~0.62 per thread.
	SMTEfficiency float64
}

// DefaultConfig returns the paper machine: 4 CPUs, STREAM-calibrated
// bus, Xeon L2 geometry.
func DefaultConfig() Config {
	return Config{
		NumCPUs:       4,
		Bus:           bus.DefaultConfig(),
		L2:            cache.XeonL2(),
		MicroStep:     10 * units.Millisecond,
		PollutionFrac: 0.5,
		SMTEfficiency: 0.62,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumCPUs < 1 {
		return fmt.Errorf("machine: %d CPUs", c.NumCPUs)
	}
	if err := c.Bus.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.MicroStep < 0 {
		return errors.New("machine: negative micro step")
	}
	if c.PollutionFrac < 0 || c.PollutionFrac > 1 {
		return fmt.Errorf("machine: pollution fraction %v out of [0,1]", c.PollutionFrac)
	}
	if c.SMTSiblings < 0 || c.SMTSiblings > 2 {
		return fmt.Errorf("machine: SMT siblings %d (want 0, 1 or 2)", c.SMTSiblings)
	}
	if c.SMTSiblings == 2 {
		if c.NumCPUs%2 != 0 {
			return fmt.Errorf("machine: SMT needs an even logical CPU count, got %d", c.NumCPUs)
		}
		if c.SMTEfficiency <= 0 || c.SMTEfficiency > 1 {
			return fmt.Errorf("machine: SMT efficiency %v out of (0,1]", c.SMTEfficiency)
		}
	}
	return nil
}

// Placement assigns one thread to one processor for a slice.
type Placement struct {
	Thread *workload.Thread
	CPU    int
}

// ThreadStep reports one placed thread's slice outcome.
type ThreadStep struct {
	Thread *workload.Thread
	CPU    int
	// Speed is the mean progress fraction over the slice.
	Speed float64
	// Rate is the mean achieved transaction rate over the slice.
	Rate units.Rate
	// Migrated reports whether this slice began with a migration.
	Migrated bool
}

// StepResult summarizes one Step call.
type StepResult struct {
	Elapsed units.Time
	// Outcome is the bus outcome of the final micro-step (demands may
	// shift within the slice as phases roll over).
	Outcome bus.Outcome
	// MeanUtilization averages bus utilization over micro-steps.
	MeanUtilization float64
	// MeanServed averages the served transaction rate over micro-steps.
	MeanServed units.Rate
	Migrations int
	// ContextSwitches counts processors whose occupant changed since
	// the previous slice.
	ContextSwitches int
	// Threads aliases the machine's reusable scratch: the slice is
	// valid until the next Step call on the same Machine.
	Threads []ThreadStep
	// BusyCPUs is the number of processors that executed a thread.
	BusyCPUs int
}

// Machine is the simulated SMP. Not safe for concurrent use.
type Machine struct {
	cfg        Config
	busModel   *bus.Model
	now        units.Time
	lastCPU    map[*workload.Thread]int
	lastThread []*workload.Thread // per-CPU most recent occupant
	busyTime   []units.Time       // per-CPU accumulated busy time

	// Per-call scratch, reused across Steps so the quantum loop
	// allocates nothing beyond the returned ThreadStep slice.
	cpuUsed  []bool
	busyCore []int
	deltas   [][perfctr.NumEvents]uint64 // per-placement counter increments
	reqs     []bus.Request
	grants   []bus.Grant
	steps    []ThreadStep
}

// New builds a Machine.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MicroStep == 0 {
		cfg.MicroStep = 10 * units.Millisecond
	}
	bm, err := bus.New(cfg.Bus)
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:        cfg,
		busModel:   bm,
		lastCPU:    make(map[*workload.Thread]int),
		lastThread: make([]*workload.Thread, cfg.NumCPUs),
		busyTime:   make([]units.Time, cfg.NumCPUs),
		cpuUsed:    make([]bool, cfg.NumCPUs),
		busyCore:   make([]int, (cfg.NumCPUs+1)/2),
		deltas:     make([][perfctr.NumEvents]uint64, cfg.NumCPUs),
		reqs:       make([]bus.Request, 0, cfg.NumCPUs),
		grants:     make([]bus.Grant, 0, cfg.NumCPUs),
		steps:      make([]ThreadStep, 0, cfg.NumCPUs),
	}, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current simulated time.
func (m *Machine) Now() units.Time { return m.now }

// BusyTime returns the accumulated busy time of each processor in a
// fresh slice. Hot paths should prefer AppendBusyTime.
func (m *Machine) BusyTime() []units.Time {
	return m.AppendBusyTime(nil)
}

// AppendBusyTime appends each processor's accumulated busy time to dst
// and returns the extended slice, reusing dst's capacity — the
// non-allocating variant of BusyTime.
func (m *Machine) AppendBusyTime(dst []units.Time) []units.Time {
	return append(dst, m.busyTime...)
}

// LastCPU returns where the thread last ran, or -1 if it never ran.
func (m *Machine) LastCPU(t *workload.Thread) int {
	if cpu, ok := m.lastCPU[t]; ok {
		return cpu
	}
	return -1
}

// Step runs the given placements for dt of wall-clock time. Placements
// must reference distinct CPUs within range and distinct, unfinished
// threads; violations return an error and leave state untouched.
func (m *Machine) Step(placements []Placement, dt units.Time) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, errors.New("machine: non-positive step duration")
	}
	if len(placements) > m.cfg.NumCPUs {
		return StepResult{}, fmt.Errorf("machine: %d placements on %d CPUs", len(placements), m.cfg.NumCPUs)
	}
	for i := range m.cpuUsed {
		m.cpuUsed[i] = false
	}
	for i, p := range placements {
		if p.Thread == nil {
			return StepResult{}, errors.New("machine: nil thread placed")
		}
		if p.CPU < 0 || p.CPU >= m.cfg.NumCPUs {
			return StepResult{}, fmt.Errorf("machine: CPU %d out of range", p.CPU)
		}
		if m.cpuUsed[p.CPU] {
			return StepResult{}, fmt.Errorf("machine: CPU %d double-booked", p.CPU)
		}
		for _, q := range placements[:i] {
			if q.Thread == p.Thread {
				return StepResult{}, fmt.Errorf("machine: thread %s/%d placed twice", p.Thread.App.Instance, p.Thread.Index)
			}
		}
		m.cpuUsed[p.CPU] = true
	}

	scratch := m.steps[:cap(m.steps)]
	for i := range scratch {
		scratch[i] = ThreadStep{}
	}
	res := StepResult{
		Elapsed:  dt,
		Threads:  scratch[:len(placements)],
		BusyCPUs: len(placements),
	}
	for i, p := range placements {
		res.Threads[i] = ThreadStep{Thread: p.Thread, CPU: p.CPU}
		last, ran := m.lastCPU[p.Thread]
		switch {
		case ran && last != p.CPU:
			// Full migration: the working set must be rebuilt.
			p.Thread.Migrate(m.cfg.L2.LineSize)
			res.Threads[i].Migrated = true
			res.Migrations++
		case ran && m.lastThread[p.CPU] != p.Thread:
			// Resuming on its own processor after someone else used
			// it: partial working-set refill.
			p.Thread.AddDebt(m.cfg.PollutionFrac * float64(p.Thread.App.Profile.MigrationPenalty))
		}
		if m.lastThread[p.CPU] != p.Thread {
			res.ContextSwitches++
		}
		m.lastCPU[p.Thread] = p.CPU
		m.lastThread[p.CPU] = p.Thread
		m.busyTime[p.CPU] += dt
	}

	// Core occupancy for SMT resource sharing.
	var busyCore []int
	if m.cfg.SMTSiblings == 2 {
		busyCore = m.busyCore
		for i := range busyCore {
			busyCore[i] = 0
		}
		for _, p := range placements {
			busyCore[p.CPU/2]++
		}
	}

	// Micro-step so that phase boundaries and refill debt are honoured
	// within the slice.
	steps := int((dt + m.cfg.MicroStep - 1) / m.cfg.MicroStep)
	if steps < 1 {
		steps = 1
	}
	remaining := dt
	var utilSum float64
	var servedSum units.Rate
	reqs := m.reqs[:len(placements)] // cap is NumCPUs >= len(placements)
	// Counter increments are summed per placement across the micro-steps
	// and flushed once below. Nothing reads the counters inside a Step,
	// and the modular sum of the same truncated increments is the same,
	// so the flush is exact.
	deltas := m.deltas[:len(placements)]
	clear(deltas)
	for s := 0; s < steps; s++ {
		sub := m.cfg.MicroStep
		if sub > remaining {
			sub = remaining
		}
		if sub <= 0 {
			break
		}
		remaining -= sub
		for i, p := range placements {
			reqs[i] = bus.Request{Demand: p.Thread.Demand(), StallFrac: p.Thread.StallFrac()}
		}
		grants, out := m.busModel.AllocateInto(m.grants, reqs)
		m.grants = grants[:0]
		for i, p := range placements {
			g := grants[i]
			speed := g.Speed
			if m.cfg.SMTSiblings == 2 && busyCore[p.CPU/2] > 1 {
				// Both logical siblings of this core are busy: they
				// share the core's execution resources.
				speed *= m.cfg.SMTEfficiency
			}
			wall := float64(sub)
			p.Thread.AdvanceInto(&deltas[i], wall*speed, wall, g.Rate*units.Rate(speed/maxf(g.Speed, 1e-12)))
			w := float64(sub) / float64(dt)
			res.Threads[i].Speed += speed * w
			res.Threads[i].Rate += g.Rate * units.Rate(w*speed/maxf(g.Speed, 1e-12))
		}
		utilSum += out.Utilization
		servedSum += out.Served
		res.Outcome = out
	}
	for i, p := range placements {
		p.Thread.Counters.AddAll(deltas[i])
	}
	res.MeanUtilization = utilSum / float64(steps)
	res.MeanServed = servedSum / units.Rate(steps)
	m.now += dt
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

var errIdleDuration = errors.New("machine: non-positive idle duration")

// Idle advances time without running anything (all CPUs idle).
func (m *Machine) Idle(dt units.Time) error {
	if dt <= 0 {
		return errIdleDuration
	}
	m.now += dt
	return nil
}
