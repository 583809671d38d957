// Package sim runs multiprogrammed workloads on the simulated SMP
// under a chosen scheduling policy and collects the metrics the
// paper's figures are built from: per-application turnaround times,
// achieved bus transaction rates, migrations, context switches and bus
// utilization.
//
// The loop mirrors the paper's system structure: each quantum the
// scheduler produces placements, the machine executes them, and the
// CPU-manager sampling path (virtual performance counters polled via
// perfctr monitors) feeds per-thread bus-rate samples back to the
// policy for the applications that ran.
package sim

import (
	"errors"
	"fmt"

	"busaware/internal/faults"
	"busaware/internal/machine"
	"busaware/internal/perfctr"
	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/timeline"
	"busaware/internal/trace"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Config controls one simulation run.
type Config struct {
	// Machine is the simulated hardware; zero value selects the paper
	// machine (DefaultConfig).
	Machine machine.Config
	// MaxTime caps simulated time as a runaway guard. Zero selects
	// DefaultMaxTime.
	MaxTime units.Time
	// ManagerOverhead is extra solo-equivalent work charged to every
	// placed thread each quantum, modelling the user-level CPU
	// manager's sampling and signalling cost. Zero for kernel
	// schedulers; the paper measured at most 4.5% for the manager.
	ManagerOverhead units.Time
	// Sampling selects how the CPU manager turns counter deltas into
	// the per-thread bandwidth estimates the policies consume. See the
	// SampleMode docs; the default is SampleRequirements.
	Sampling SampleMode
	// Trace, when non-nil, records every placement for later
	// rendering or Chrome-trace export.
	Trace *trace.Timeline
	// Timeline, when non-nil, receives one aggregated sample per
	// quantum — bus utilization and stretch, admission decisions,
	// queue depth, fault events — windowed into bounded memory by the
	// collector (see internal/timeline). Recording is allocation-free,
	// so attaching a collector does not disturb the PR 3 fast path,
	// and a nil collector costs one branch per quantum.
	Timeline *timeline.Collector
	// Faults configures seeded fault injection across the sampling and
	// signalling paths (see internal/faults). The zero value is inert:
	// no injector is built and the run is byte-identical to one with no
	// fault support at all. Faults model the *managed* stack — counter
	// sampling, arena publishing, block/unblock signalling, client
	// crashes — so kernel baselines (Linux, RR) are unaffected except
	// for counter-level faults, which they ignore anyway.
	Faults faults.Config
	// Scenario, when non-nil, layers workload churn over the base
	// apps: the schedule's events submit fresh application instances
	// mid-run (through the same pending-admission path timed arrivals
	// use) and retire them again, youngest-first, as the pattern
	// recedes. The run still ends when the base workload's finite
	// applications complete; scenario instances that completed
	// naturally by then are reported in Result.Apps (with their
	// arrival time), ones retired by a departure or still running are
	// only counted. A nil Scenario is byte-identical to a build
	// without scenario support.
	Scenario *scenario.Schedule
}

// SampleMode selects the bandwidth estimator fed to the policies.
type SampleMode int

const (
	// SampleRequirements corrects the measured transaction rate for
	// contention, estimating the application's bandwidth
	// *requirements* — the paper's own term for the quantity the
	// policies schedule on. On real hardware the correction factor is
	// available from the same PMCs (bus stall cycles vs elapsed
	// cycles). This is the default: with raw consumption feedback a
	// saturated bus deflates every application's sample toward the
	// same value and the fitness metric loses its discriminating
	// power (see the SampleConsumption ablation in EXPERIMENTS.md).
	SampleRequirements SampleMode = iota
	// SampleConsumption feeds the raw measured rate (consumption,
	// deflated under contention). Kept as an ablation.
	SampleConsumption
)

// DefaultMaxTime bounds runs to 30 simulated minutes.
const DefaultMaxTime = 30 * 60 * units.Second

// AppResult is one application's outcome.
type AppResult struct {
	Instance string
	Profile  string
	// Arrived is when the application entered the system. Zero for the
	// classic fixed-mix workloads; scenario churn and timed arrivals
	// set it.
	Arrived units.Time
	// Turnaround is completion minus arrival — wall time spent in the
	// system, not completion time, so a late arrival is not charged
	// for the quanta before it existed.
	Turnaround units.Time
	// SoloTime is the profile's uncontended execution time.
	SoloTime units.Time
	// Slowdown is Turnaround / SoloTime.
	Slowdown float64
	// RunTime is the wall-clock time the app actually held processors.
	RunTime units.Time
	// MeanBusRate is the cumulative transaction rate achieved while
	// running (all threads summed) — the Figure 1A quantity.
	MeanBusRate units.Rate
	// Transactions is the total bus transactions issued.
	Transactions uint64
}

// Result is the outcome of one Run.
type Result struct {
	Scheduler string
	// Apps holds results for the finite applications, in input order.
	Apps []AppResult
	// EndTime is when the last finite application completed.
	EndTime units.Time
	Quanta  int
	// Migrations and ContextSwitches are machine-wide totals.
	Migrations      int
	ContextSwitches int
	// MeanBusUtilization averages the bus utilization over quanta.
	MeanBusUtilization float64
	// TimedOut reports the MaxTime guard fired before completion.
	TimedOut bool
	// LeaptQuanta is always 0: every quantum is stepped.
	//
	// Deprecated: kept only so existing benchmark tooling that reads
	// it still compiles; nothing in the simulator sets it.
	LeaptQuanta int
	// FaultStats counts the faults injected into the run (zero when
	// Config.Faults is disabled).
	FaultStats faults.Stats
	// Scenario churn totals, all zero when Config.Scenario is nil:
	// instances admitted mid-run, instances retired by a departure
	// event before completing, and instances that completed naturally
	// (these also appear in Apps).
	ScenarioArrivals   int
	ScenarioDepartures int
	ScenarioCompleted  int
}

// MeanTurnaround returns the arithmetic mean turnaround of the finite
// applications — the paper's headline metric ("the improvement in the
// arithmetic mean of the execution times of both application
// instances").
func (r Result) MeanTurnaround() units.Time {
	if len(r.Apps) == 0 {
		return 0
	}
	var sum units.Time
	for _, a := range r.Apps {
		sum += a.Turnaround
	}
	return sum / units.Time(len(r.Apps))
}

// appState wires one application to the scheduler (through a Job) and
// to the CPU manager's sampling path (one perfctr monitor per thread).
// The per-quantum fields are scratch reused across quanta so the
// steady-state loop allocates nothing.
type appState struct {
	app      *workload.App
	job      *sched.Job
	monitors []*perfctr.Monitor
	runTime  units.Time
	trans    uint64

	// Per-quantum scratch: how many of the app's threads ran, the
	// contention-corrected demand they accumulated, and the
	// control-fault flags. All reset before the next quantum.
	ranThreads int
	demandCum  float64
	present    bool
	lost       bool

	// scenario marks an instance materialized from Config.Scenario —
	// it never counts toward the base workload's completion condition.
	// departed is set when a departure event retires it mid-run.
	scenario bool
	departed bool
}

// Run executes apps under s until every finite application completes.
// Endless applications (the microbenchmarks) run for the duration and
// are discarded at the end, exactly as the paper's workloads do.
func Run(cfg Config, s sched.Scheduler, apps []*workload.App) (Result, error) {
	if s == nil {
		return Result{}, errors.New("sim: nil scheduler")
	}
	if len(apps) == 0 {
		return Result{}, errors.New("sim: no applications")
	}
	if cfg.Machine.NumCPUs == 0 {
		cfg.Machine = machine.DefaultConfig()
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = DefaultMaxTime
	}
	if err := cfg.Faults.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	// inj is nil for a zero fault config; every consultation below is
	// nil-safe and draws nothing, so the no-fault path is unchanged.
	inj := faults.New(cfg.Faults)
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return Result{}, err
	}

	// Wire each application to the scheduler through a Job, and each
	// thread to a perfctr monitor — the CPU manager's sampling path.
	states := make([]*appState, len(apps))
	byApp := make(map[*workload.App]*appState, len(apps))
	windowLen, ewmaAlpha := 1, 0.0
	if ba, ok := s.(*sched.BandwidthAware); ok {
		windowLen = ba.WindowLen()
		if ba.Estimator() == sched.EstEWMA {
			ewmaAlpha = 0.4
		}
	}
	var pending []*appState
	// connected tracks the scheduler's queue depth (jobs added and not
	// yet removed) for the timeline's runnable series.
	connected := 0
	for i, app := range apps {
		if app == nil {
			return Result{}, fmt.Errorf("sim: nil app at index %d", i)
		}
		if app.Arrived < 0 {
			return Result{}, fmt.Errorf("sim: app %s has negative arrival time", app.Instance)
		}
		st := &appState{app: app, job: sched.NewJob(app, windowLen, ewmaAlpha)}
		for _, th := range app.Threads {
			mon := perfctr.NewMonitor(&th.Counters)
			// Prime the monitor with its time-zero baseline so the
			// first quantum's transactions are not swallowed by
			// baseline establishment. The fault hook is attached only
			// afterwards: injected counter faults never eat the
			// baseline itself.
			mon.Poll(m.Now())
			if inj != nil {
				mon.SetFaultHook(inj)
			}
			st.monitors = append(st.monitors, mon)
		}
		states[i] = st
		byApp[app] = st
		if app.Arrived == 0 {
			s.Add(st.job)
			connected++
		} else {
			// Dynamic arrival: the application connects to the
			// scheduler when its arrival time passes, like a process
			// connecting to the paper's CPU manager mid-run.
			pending = append(pending, st)
		}
	}

	res := Result{Scheduler: s.Name()}
	quantum := s.Quantum()
	if quantum <= 0 {
		return Result{}, fmt.Errorf("sim: scheduler %s has non-positive quantum", s.Name())
	}

	// remaining counts only the base workload: the run ends when it
	// completes, whatever the scenario is still churning. Counted
	// before scenario states are appended.
	remaining := 0
	for _, st := range states {
		if !st.app.Profile.Endless() {
			remaining++
		}
	}
	if remaining == 0 {
		return Result{}, errors.New("sim: workload has no finite applications")
	}

	// Materialize scenario churn: every arrival becomes a pending
	// appState admitted through the same path as timed arrivals (so a
	// t=0 churn event and an Arrived app are indistinguishable to the
	// scheduler); departures queue up for the loop to pop in time
	// order. The schedule is read-only.
	var depEvents []scenario.Event
	depIdx := 0
	byInstance := map[string]*appState{}
	if cfg.Scenario != nil {
		for _, ev := range cfg.Scenario.Events {
			if ev.At < 0 {
				return Result{}, fmt.Errorf("sim: scenario event %s at negative time", ev.Instance)
			}
			switch ev.Kind {
			case scenario.EventArrive:
				p, ok := workload.ByName(ev.Profile)
				if !ok {
					return Result{}, fmt.Errorf("sim: scenario profile %q unknown", ev.Profile)
				}
				app := workload.NewApp(p, ev.Instance)
				app.Arrived = ev.At
				st := &appState{app: app, job: sched.NewJob(app, windowLen, ewmaAlpha), scenario: true}
				for _, th := range app.Threads {
					mon := perfctr.NewMonitor(&th.Counters)
					mon.Poll(m.Now())
					if inj != nil {
						mon.SetFaultHook(inj)
					}
					st.monitors = append(st.monitors, mon)
				}
				states = append(states, st)
				byApp[app] = st
				byInstance[ev.Instance] = st
				pending = append(pending, st)
			case scenario.EventDepart:
				if byInstance[ev.Instance] == nil {
					return Result{}, fmt.Errorf("sim: scenario departure of unknown instance %q", ev.Instance)
				}
				depEvents = append(depEvents, ev)
			}
		}
		for i := 1; i < len(depEvents); i++ {
			if depEvents[i].At < depEvents[i-1].At {
				return Result{}, errors.New("sim: scenario events out of order")
			}
		}
	}

	var utilSum float64
	var prevFaults uint64
	for remaining > 0 {
		if m.Now() >= cfg.MaxTime {
			res.TimedOut = true
			break
		}
		// Admit newly arrived applications.
		kept := pending[:0]
		for _, st := range pending {
			if st.app.Arrived <= m.Now() {
				s.Add(st.job)
				connected++
				if st.scenario {
					res.ScenarioArrivals++
				}
			} else {
				kept = append(kept, st)
			}
		}
		pending = kept
		// Pop due scenario departures. Admission ran first, so a
		// departing instance is either connected (remove it) or already
		// completed on its own (a no-op — natural completion wins, and
		// the departure is not counted).
		for depIdx < len(depEvents) && depEvents[depIdx].At <= m.Now() {
			st := byInstance[depEvents[depIdx].Instance]
			depIdx++
			if st.departed || st.app.IsMarkedCompleted() {
				continue
			}
			s.Remove(st.job)
			connected--
			st.departed = true
			st.app.MarkDeparted(m.Now())
			res.ScenarioDepartures++
		}
		placements := s.Schedule(m.Now(), m)
		if len(placements) > 0 && (inj.CrashEnabled() || inj.SignalLossEnabled()) {
			// Control-channel faults, decided per application in input
			// order (deterministic draw sequence). A crash models the
			// client (run-time library) dying mid-quantum: the gang
			// misses the quantum and its scheduler-side sampling
			// history is gone when it reconnects. A dropped signal
			// models a lost unblock: the manager admitted the gang but
			// it never woke, so its processors idle for one quantum —
			// the expensive direction of signal loss. The whole block
			// is gated on those two fault classes having nonzero
			// rates: with them disabled no flag is touched, no draw is
			// made, and the clean path allocates nothing.
			for _, p := range placements {
				byApp[p.Thread.App].present = true
			}
			anyLost := false
			for _, st := range states {
				if !st.present {
					continue
				}
				st.present = false
				if inj.Crash() {
					st.lost = true
					anyLost = true
					st.job.ResetSamples()
					continue
				}
				if inj.DropSignal() {
					st.lost = true
					anyLost = true
				}
			}
			if anyLost {
				kept := placements[:0]
				for _, p := range placements {
					if !byApp[p.Thread.App].lost {
						kept = append(kept, p)
					}
				}
				placements = kept
				for _, st := range states {
					st.lost = false
				}
			}
		}
		var step machine.StepResult
		if len(placements) == 0 {
			if err := m.Idle(quantum); err != nil {
				return Result{}, err
			}
		} else {
			// Charge the CPU-manager overhead before the quantum runs,
			// so it is paid at the thread's contended speed.
			if cfg.ManagerOverhead > 0 {
				for _, p := range placements {
					p.Thread.AddDebt(float64(cfg.ManagerOverhead))
				}
			}
			step, err = m.Step(placements, quantum)
			if err != nil {
				return Result{}, fmt.Errorf("sim: quantum %d: %w", res.Quanta, err)
			}
		}
		res.Quanta++
		res.Migrations += step.Migrations
		res.ContextSwitches += step.ContextSwitches
		utilSum += step.MeanUtilization
		if cfg.Trace != nil && len(step.Threads) > 0 {
			qStart := m.Now() - quantum
			for _, ts := range step.Threads {
				cfg.Trace.Record(trace.Slice{
					CPU:      ts.CPU,
					Start:    qStart,
					Duration: quantum,
					Label:    fmt.Sprintf("%s/%d", ts.Thread.App.Instance, ts.Thread.Index),
					Speed:    ts.Speed,
					Migrated: ts.Migrated,
				})
			}
			cfg.Trace.RecordQuantum(trace.QuantumStat{
				Start:       qStart,
				Duration:    quantum,
				Utilization: step.MeanUtilization,
				Served:      step.MeanServed,
			})
		}

		// Sampling: poll every thread of every app (resetting deltas),
		// but only applications that ran this quantum contribute a
		// bandwidth sample, per the paper's "updates the bus bandwidth
		// consumption statistics for all running jobs".
		for _, ts := range step.Threads {
			st := byApp[ts.Thread.App]
			st.ranThreads++
			if ts.Speed > 0 {
				// Contention-corrected requirement: consumption divided
				// by the achieved speed fraction recovers the rate the
				// thread would sustain uncontended.
				st.demandCum += float64(ts.Rate) / ts.Speed
			}
		}
		admitted := 0
		for _, st := range states {
			var appTrans uint64
			for ti := range st.app.Threads {
				rates, ok := st.monitors[ti].Poll(m.Now())
				if !ok {
					continue
				}
				appTrans += uint64(rates[perfctr.EventBusTransAny] * float64(quantum))
			}
			if n := st.ranThreads; n > 0 {
				admitted++
				// BBW/thread: equipartition the application's bandwidth
				// among its threads.
				var cum units.Rate
				switch cfg.Sampling {
				case SampleConsumption:
					cum = units.Rate(float64(appTrans) / float64(quantum))
				default: // SampleRequirements
					cum = units.Rate(st.demandCum)
				}
				// A lost publish (the run-time library missed its arena
				// slot) starves the policy of this quantum's sample;
				// noise perturbs what does get published. Both are
				// no-ops without an injector.
				if !inj.DropSample() {
					perThread := float64(cum / units.Rate(n))
					st.job.PushSample(units.Rate(inj.PerturbSample(perThread)))
				}
				st.runTime += quantum
				st.trans += appTrans
				st.ranThreads = 0
				st.demandCum = 0
			}
		}

		// Timeline: one aggregated sample per quantum, recorded after
		// sampling so admission reflects what actually ran (crash and
		// signal-loss drops included) and before retirement so the
		// runnable depth is the queue the scheduler just saw. The
		// fault delta is read per quantum only when a collector is
		// attached; the nil path costs exactly this branch.
		if cfg.Timeline != nil {
			tot := inj.Stats().Total()
			cfg.Timeline.RecordQuantum(timeline.Sample{
				StartUsec:   int64(m.Now() - quantum),
				DurUsec:     int64(quantum),
				Utilization: step.MeanUtilization,
				Served:      float64(step.MeanServed),
				Stretch:     step.Outcome.Stretch,
				Placed:      len(step.Threads),
				Runnable:    connected,
				Admitted:    admitted,
				Faults:      int64(tot - prevFaults),
			})
			prevFaults = tot
		}

		// Retire finished applications. Departed instances are out of
		// the scheduler already and frozen, so they never re-retire.
		for _, st := range states {
			if !st.app.Profile.Endless() && !st.departed && st.app.Done() && !st.app.IsMarkedCompleted() {
				st.app.MarkCompleted(m.Now())
				s.Remove(st.job)
				connected--
				if st.scenario {
					res.ScenarioCompleted++
				} else {
					remaining--
				}
			}
		}
	}
	res.EndTime = m.Now()
	if cfg.Timeline != nil {
		cfg.Timeline.Seal()
	}
	if res.Quanta > 0 {
		res.MeanBusUtilization = utilSum / float64(res.Quanta)
	}
	res.FaultStats = inj.Stats()

	for _, st := range states {
		if st.app.Profile.Endless() {
			continue
		}
		// Scenario instances are reported only if they completed
		// naturally: a departed or still-running instance has no
		// turnaround and would deflate the headline mean.
		if st.scenario && !st.app.IsMarkedCompleted() {
			continue
		}
		ar := AppResult{
			Instance:     st.app.Instance,
			Profile:      st.app.Profile.Name,
			Arrived:      st.app.Arrived,
			Turnaround:   st.app.Turnaround(),
			SoloTime:     st.app.Profile.SoloTime,
			RunTime:      st.runTime,
			Transactions: st.trans,
		}
		if ar.SoloTime > 0 && ar.Turnaround > 0 {
			ar.Slowdown = float64(ar.Turnaround) / float64(ar.SoloTime)
		}
		if st.runTime > 0 {
			ar.MeanBusRate = units.Rate(float64(st.trans) / float64(st.runTime))
		}
		res.Apps = append(res.Apps, ar)
	}
	return res, nil
}

// MicrobenchRates returns the mean cumulative bus rate achieved by the
// given endless applications during a run window. It reruns nothing:
// callers pass the apps after Run and it reads their counters.
func MicrobenchRates(apps []*workload.App, elapsed units.Time) map[string]units.Rate {
	out := make(map[string]units.Rate)
	if elapsed <= 0 {
		return out
	}
	for _, app := range apps {
		var trans uint64
		for _, th := range app.Threads {
			trans += th.Counters.Read(perfctr.EventBusTransAny)
		}
		out[app.Instance] = units.Rate(float64(trans) / float64(elapsed))
	}
	return out
}
