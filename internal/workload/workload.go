// Package workload models the applications the paper schedules: the
// NAS and Splash-2 codes of Figure 1, the BBMA / nBBMA antagonist
// microbenchmarks, and generated synthetic mixes.
//
// An application is a gang of threads; each thread executes a cyclic
// list of phases. A phase is a stretch of solo-equivalent execution
// time with a constant bus-transaction demand and memory-stall
// fraction. Uniform applications have one phase; bursty ones
// (Raytrace, LU CB) alternate phases, which is what destabilizes the
// "Latest Quantum" policy in the paper's Figure 2B.
//
// The simulator advances threads in solo-equivalent microseconds: the
// bus model turns wall-clock quantum time into solo-equivalent
// progress via the contention speed factor, and the thread consumes
// its phases accordingly while its virtual performance counters
// accumulate the transactions actually issued.
package workload

import (
	"errors"
	"fmt"
	"math"

	"busaware/internal/cache"
	"busaware/internal/perfctr"
	"busaware/internal/units"
)

// Phase is a stretch of execution with uniform bus behaviour.
type Phase struct {
	// Duration is the phase length in solo-equivalent usec.
	Duration units.Time
	// Demand is the per-thread solo bus transaction rate, trans/usec.
	Demand units.Rate
	// StallFrac is the fraction of solo time stalled on the bus.
	StallFrac float64
}

// Profile describes an application type.
type Profile struct {
	// Name identifies the application ("CG", "BBMA", ...).
	Name string
	// Threads is the gang size; the schedulers allocate processors to
	// all of them or none (gang-like policies) .
	Threads int
	// SoloTime is the solo-equivalent execution time of each thread.
	// Zero or negative means the application never finishes — used for
	// the antagonist microbenchmarks, which run for the whole
	// experiment.
	SoloTime units.Time
	// Phases is the cyclic phase list; must be non-empty.
	Phases []Phase
	// WorkingSet describes the warm-cache footprint, which prices
	// thread migrations.
	WorkingSet cache.WorkingSet
	// MigrationPenalty is the solo-equivalent extra work a thread pays
	// after running on a different processor than last time, on top of
	// the refill bus traffic implied by WorkingSet. Applications with
	// very high hit rates (LU CB, Water-nsqr) have large penalties —
	// the paper singles them out as migration-sensitive.
	MigrationPenalty units.Time
	// BarrierInterval is the solo-equivalent execution time between
	// synchronization barriers. The paper's applications are OpenMP /
	// Splash-2 codes that barrier frequently: a thread that runs ahead
	// of a descheduled sibling reaches the next barrier and spin-waits,
	// burning its processor without progress or bus traffic. This is
	// the classic motivation for the gang-like allocation the paper's
	// policies use: they always run all of an application's threads
	// together, so its threads never spin at barriers. Zero means no
	// barriers (the single-threaded microbenchmarks).
	BarrierInterval units.Time
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return errors.New("workload: profile needs a name")
	}
	if p.Threads < 1 {
		return fmt.Errorf("workload: %s: threads = %d", p.Name, p.Threads)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: %s: no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("workload: %s: phase %d duration %v", p.Name, i, ph.Duration)
		}
		if ph.Demand < 0 {
			return fmt.Errorf("workload: %s: phase %d negative demand", p.Name, i)
		}
		if ph.StallFrac < 0 || ph.StallFrac > 1 {
			return fmt.Errorf("workload: %s: phase %d stall %v", p.Name, i, ph.StallFrac)
		}
	}
	if p.MigrationPenalty < 0 {
		return fmt.Errorf("workload: %s: negative migration penalty", p.Name)
	}
	if p.BarrierInterval < 0 {
		return fmt.Errorf("workload: %s: negative barrier interval", p.Name)
	}
	return nil
}

// Endless reports whether the application never completes.
func (p Profile) Endless() bool { return p.SoloTime <= 0 }

// SoloRate returns the application's cumulative steady-state solo
// transaction rate across all threads — the quantity plotted as the
// black bars of Figure 1A. For multi-phase profiles it is the
// time-weighted mean over one phase cycle.
func (p Profile) SoloRate() units.Rate {
	var total units.Time
	var weighted float64
	for _, ph := range p.Phases {
		total += ph.Duration
		weighted += float64(ph.Demand) * float64(ph.Duration)
	}
	if total == 0 {
		return 0
	}
	return units.Rate(weighted/float64(total)) * units.Rate(p.Threads)
}

// MeanStallFrac returns the time-weighted mean stall fraction.
func (p Profile) MeanStallFrac() float64 {
	var total units.Time
	var weighted float64
	for _, ph := range p.Phases {
		total += ph.Duration
		weighted += ph.StallFrac * float64(ph.Duration)
	}
	if total == 0 {
		return 0
	}
	return weighted / float64(total)
}

// Thread is one runnable thread of an App instance.
type Thread struct {
	App *App
	// Index is the thread's position within its gang.
	Index int
	// Counters is the thread's virtual performance counter file.
	Counters perfctr.Counters

	// phase progress, all in solo-equivalent usec
	phaseIdx  int
	phaseUsed float64 // solo usec consumed within the current phase
	progress  float64 // total solo usec of real work completed
	debt      float64 // migration penalty work still owed
	spun      float64 // solo-equivalent usec wasted spinning at barriers

	// lastCPU is the processor the machine last ran the thread on,
	// plus one; zero means the thread has not run yet.
	lastCPU int
}

// CPUFrequencyMHz converts simulated time to cycle counts for the
// CYCLES counter; the paper's Xeons ran at 1.4 GHz.
const CPUFrequencyMHz = 1400

// Done reports whether the thread has completed its solo work.
func (t *Thread) Done() bool {
	// Endless, inlined: the value-receiver call copies the whole
	// Profile, and Done runs several times per thread per micro-step.
	solo := t.App.Profile.SoloTime
	return solo > 0 && t.progress >= float64(solo)
}

// Remaining returns the outstanding solo-equivalent work (including
// migration debt), or +Inf for endless threads.
func (t *Thread) Remaining() float64 {
	if t.App.Profile.Endless() {
		return math.Inf(1)
	}
	rem := float64(t.App.Profile.SoloTime) - t.progress + t.debt
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Progress returns completed solo-equivalent work in usec.
func (t *Thread) Progress() float64 { return t.progress }

// SpunTime returns the solo-equivalent time wasted spinning at
// barriers so far.
func (t *Thread) SpunTime() float64 { return t.spun }

// CurrentPhase returns the phase governing the thread right now.
func (t *Thread) CurrentPhase() Phase {
	return t.App.Profile.Phases[t.phaseIdx]
}

// LastCPU returns the processor the thread last ran on, or -1 if it
// has not run yet.
func (t *Thread) LastCPU() int { return t.lastCPU - 1 }

// SetLastCPU records that the thread ran on processor cpu.
func (t *Thread) SetLastCPU(cpu int) { t.lastCPU = cpu + 1 }

// Demand returns the thread's instantaneous solo bus demand.
func (t *Thread) Demand() units.Rate {
	d, _ := t.DemandStall()
	return d
}

// DemandStall returns the thread's instantaneous solo bus demand and
// stall fraction with one phase and barrier lookup. While a thread is
// repaying migration debt it runs at memory speed: demand is dominated
// by the refill stream. A thread spin-waiting at a barrier hits in
// cache and issues almost nothing.
func (t *Thread) DemandStall() (units.Rate, float64) {
	ph := &t.App.Profile.Phases[t.phaseIdx]
	if t.debt > 0 {
		// Refilling the working set streams lines from memory.
		return maxRate(ph.Demand, RefillDemand), maxf(ph.StallFrac, RefillStallFrac)
	}
	if t.AtBarrier() {
		return SpinDemand, 0
	}
	return ph.Demand, ph.StallFrac
}

// SpinDemand is the bus demand of a thread spinning on a cached
// synchronization flag: essentially nil.
const SpinDemand units.Rate = 0.01

// AtBarrier reports whether the thread has run ahead of its slowest
// sibling by a full barrier interval and must spin until the sibling
// catches up.
func (t *Thread) AtBarrier() bool {
	interval := t.App.Profile.BarrierInterval
	if interval <= 0 || len(t.App.Threads) < 2 || t.Done() {
		return false
	}
	return t.progress >= t.App.minProgress(t)+float64(interval)
}

// barrierCap returns how much further the thread may progress before
// spinning, or +Inf without barriers.
func (t *Thread) barrierCap() float64 {
	interval := t.App.Profile.BarrierInterval
	if interval <= 0 || len(t.App.Threads) < 2 {
		return math.Inf(1)
	}
	cap := t.App.minProgress(t) + float64(interval) - t.progress
	if cap < 0 {
		return 0
	}
	return cap
}

// RefillDemand and RefillStallFrac characterize the working-set refill
// stream a freshly migrated thread issues: back-to-back line fills,
// essentially the BBMA pattern.
const (
	RefillDemand    units.Rate = 20
	RefillStallFrac            = 0.95
)

// Migrate charges the thread the migration cost: extra solo-equivalent
// work plus the refill bus transactions, which land on the counters as
// they are replayed by Advance.
func (t *Thread) Migrate(lineSize units.Bytes) {
	t.AddDebt(float64(t.App.Profile.MigrationPenalty))
	_ = lineSize // refill traffic is produced by the elevated Demand while debt > 0
}

// AddDebt charges the thread extra solo-equivalent work (usec) that
// must be repaid before real progress resumes. The machine model uses
// it for cache pollution after time-sharing a processor, and the
// simulator for CPU-manager overhead.
func (t *Thread) AddDebt(usec float64) {
	if usec > 0 {
		t.debt += usec
	}
}

// Debt returns the outstanding penalty work in solo-equivalent usec.
func (t *Thread) Debt() float64 { return t.debt }

// Advance runs the thread for soloUsec of solo-equivalent time (i.e.
// wall time multiplied by the bus model's speed factor), consuming
// migration debt first, then real phase work. It updates the virtual
// counters with the transactions issued at rate actualRate (the bus
// grant) over wallUsec of wall-clock time.
func (t *Thread) Advance(soloUsec float64, wallUsec float64, actualRate units.Rate) {
	t.Counters.AddAll(t.CounterDeltas(wallUsec, actualRate))
	t.AdvanceWork(soloUsec)
}

// CounterDeltas returns the counter increments of running for wallUsec
// of wall-clock time at transaction rate actualRate, each truncated to
// an integer on its own. The machine sums a whole slice's micro-steps
// of these and flushes once per Step with AddAll; the counters end up
// bit-identical to per-micro-step Advance calls because modular
// addition is associative.
func (t *Thread) CounterDeltas(wallUsec float64, actualRate units.Rate) [perfctr.NumEvents]uint64 {
	var d [perfctr.NumEvents]uint64
	// Counters reflect wall-clock activity.
	d[perfctr.EventCycles] = uint64(wallUsec * CPUFrequencyMHz)
	d[perfctr.EventBusTransAny] = uint64(float64(actualRate) * wallUsec)
	miss := 1 - t.App.Profile.WorkingSet.HitRate
	if miss > 0 {
		trans := float64(actualRate) * wallUsec
		refs := trans / miss
		d[perfctr.EventL2Refs] = uint64(refs)
		d[perfctr.EventL2Misses] = uint64(trans)
	}
	return d
}

// AdvanceWork is the debt/barrier/progress/phase portion of Advance,
// without the performance-counter updates.
func (t *Thread) AdvanceWork(soloUsec float64) {
	if soloUsec < 0 {
		soloUsec = 0
	}
	// Debt repayment does not advance real progress.
	if t.debt > 0 {
		pay := math.Min(t.debt, soloUsec)
		t.debt -= pay
		soloUsec -= pay
	}
	if soloUsec <= 0 || t.Done() {
		return
	}
	// Barrier synchronization: progress beyond a barrier interval ahead
	// of the slowest sibling is spin-waiting, not work.
	if cap := t.barrierCap(); soloUsec > cap {
		t.spun += soloUsec - cap
		soloUsec = cap
	}
	if soloUsec <= 0 {
		return
	}
	t.progress += soloUsec
	// Walk the cyclic phase list.
	t.phaseUsed += soloUsec
	for {
		d := float64(t.CurrentPhase().Duration)
		if t.phaseUsed < d {
			break
		}
		t.phaseUsed -= d
		t.phaseIdx++
		if t.phaseIdx == len(t.App.Profile.Phases) {
			t.phaseIdx = 0
		}
	}
}

// App is one running instance of a Profile.
type App struct {
	Profile  Profile
	Instance string // distinguishes multiple copies, e.g. "CG#1"
	Threads  []*Thread

	// Arrived and Completed are stamped by the simulator.
	Arrived   units.Time
	Completed units.Time
	completed bool

	// DepartedAt is stamped when a scenario departure retires the app
	// before it completes; departed apps report no turnaround.
	DepartedAt units.Time
	departed   bool
}

// NewApp instantiates profile p. It panics on an invalid profile;
// profiles come from the registry or generators, both of which
// validate.
func NewApp(p Profile, instance string) *App {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &App{Profile: p, Instance: instance}
	a.Threads = make([]*Thread, p.Threads)
	for i := range a.Threads {
		a.Threads[i] = &Thread{App: a, Index: i}
	}
	return a
}

// minProgress returns the smallest progress among the app's threads
// other than skip (or including all if skip is nil).
func (a *App) minProgress(skip *Thread) float64 {
	min := math.Inf(1)
	for _, th := range a.Threads {
		if th == skip {
			continue
		}
		if th.progress < min {
			min = th.progress
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Done reports whether every thread has finished.
func (a *App) Done() bool {
	if a.Profile.Endless() {
		return false
	}
	for _, t := range a.Threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// MarkCompleted stamps the completion time once.
func (a *App) MarkCompleted(now units.Time) {
	if !a.completed {
		a.completed = true
		a.Completed = now
	}
}

// IsMarkedCompleted reports whether MarkCompleted has run.
func (a *App) IsMarkedCompleted() bool { return a.completed }

// MarkDeparted stamps the departure time once: the scenario engine
// retired the app at now, before completion. Departure does not mark
// the app completed, so Turnaround stays zero.
func (a *App) MarkDeparted(now units.Time) {
	if !a.departed {
		a.departed = true
		a.DepartedAt = now
	}
}

// IsDeparted reports whether MarkDeparted has run.
func (a *App) IsDeparted() bool { return a.departed }

// Turnaround returns completion minus arrival; zero if not completed.
func (a *App) Turnaround() units.Time {
	if !a.completed {
		return 0
	}
	return a.Completed - a.Arrived
}

func maxRate(a, b units.Rate) units.Rate {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
