package machine

import (
	"math"
	"math/rand"
	"testing"

	"busaware/internal/bus"
	"busaware/internal/perfctr"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// refMachine is the straightforward micro-step loop Step replaces:
// every micro-step reads each thread's demand and stall fraction
// separately, asks the bus model, and computes each placement's
// counter increments and progress afresh; counters are flushed once
// per Step. Step must match it bit for bit.
type refMachine struct {
	cfg        Config
	busModel   *bus.Model
	now        units.Time
	lastCPU    map[*workload.Thread]int
	lastThread []*workload.Thread
	busyTime   []units.Time
}

func newRefMachine(t *testing.T, cfg Config) *refMachine {
	t.Helper()
	if cfg.MicroStep == 0 {
		cfg.MicroStep = 10 * units.Millisecond
	}
	bm, err := bus.New(cfg.Bus)
	if err != nil {
		t.Fatal(err)
	}
	return &refMachine{
		cfg:        cfg,
		busModel:   bm,
		lastCPU:    make(map[*workload.Thread]int),
		lastThread: make([]*workload.Thread, cfg.NumCPUs),
		busyTime:   make([]units.Time, cfg.NumCPUs),
	}
}

func refDemand(t *workload.Thread) units.Rate {
	if t.Debt() > 0 {
		return units.Rate(math.Max(float64(t.CurrentPhase().Demand), float64(workload.RefillDemand)))
	}
	if t.AtBarrier() {
		return workload.SpinDemand
	}
	return t.CurrentPhase().Demand
}

func refStallFrac(t *workload.Thread) float64 {
	if t.Debt() > 0 {
		return math.Max(t.CurrentPhase().StallFrac, workload.RefillStallFrac)
	}
	if t.AtBarrier() {
		return 0
	}
	return t.CurrentPhase().StallFrac
}

func refAdvanceInto(t *workload.Thread, d *[perfctr.NumEvents]uint64, soloUsec, wallUsec float64, actualRate units.Rate) {
	d[perfctr.EventCycles] += uint64(wallUsec * workload.CPUFrequencyMHz)
	d[perfctr.EventBusTransAny] += uint64(float64(actualRate) * wallUsec)
	miss := 1 - t.App.Profile.WorkingSet.HitRate
	if miss > 0 {
		trans := float64(actualRate) * wallUsec
		refs := trans / miss
		d[perfctr.EventL2Refs] += uint64(refs)
		d[perfctr.EventL2Misses] += uint64(trans)
	}
	t.AdvanceWork(soloUsec)
}

func (m *refMachine) step(placements []Placement, dt units.Time) StepResult {
	res := StepResult{Elapsed: dt, Threads: make([]ThreadStep, len(placements)), BusyCPUs: len(placements)}
	for i, p := range placements {
		res.Threads[i] = ThreadStep{Thread: p.Thread, CPU: p.CPU}
		last, ran := m.lastCPU[p.Thread]
		switch {
		case ran && last != p.CPU:
			p.Thread.Migrate(m.cfg.L2.LineSize)
			res.Threads[i].Migrated = true
			res.Migrations++
		case ran && m.lastThread[p.CPU] != p.Thread:
			p.Thread.AddDebt(m.cfg.PollutionFrac * float64(p.Thread.App.Profile.MigrationPenalty))
		}
		if m.lastThread[p.CPU] != p.Thread {
			res.ContextSwitches++
		}
		m.lastCPU[p.Thread] = p.CPU
		m.lastThread[p.CPU] = p.Thread
		m.busyTime[p.CPU] += dt
	}
	busyCore := make([]int, (m.cfg.NumCPUs+1)/2)
	for _, p := range placements {
		busyCore[p.CPU/2]++
	}
	steps := int((dt + m.cfg.MicroStep - 1) / m.cfg.MicroStep)
	if steps < 1 {
		steps = 1
	}
	remaining := dt
	var utilSum float64
	var servedSum units.Rate
	reqs := make([]bus.Request, len(placements))
	deltas := make([][perfctr.NumEvents]uint64, len(placements))
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
			reqs[i] = bus.Request{Demand: refDemand(p.Thread), StallFrac: refStallFrac(p.Thread)}
		}
		grants, out := m.busModel.AllocateInto(nil, reqs)
		for i, p := range placements {
			g := grants[i]
			speed := g.Speed
			if m.cfg.SMTSiblings == 2 && busyCore[p.CPU/2] > 1 {
				speed *= m.cfg.SMTEfficiency
			}
			wall := float64(sub)
			refAdvanceInto(p.Thread, &deltas[i], wall*speed, wall, g.Rate*units.Rate(speed/maxf(g.Speed, 1e-12)))
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
	return res
}

func sameF(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameOutcome(a, b bus.Outcome) bool {
	return a.Masters == b.Masters && a.Saturated == b.Saturated &&
		sameF(float64(a.EffectiveCapacity), float64(b.EffectiveCapacity)) &&
		sameF(float64(a.Offered), float64(b.Offered)) &&
		sameF(float64(a.Served), float64(b.Served)) &&
		sameF(a.Utilization, b.Utilization) && sameF(a.Stretch, b.Stretch)
}

// Property: Step, with its skipped bus calls and replayed per-placement
// slots, is bitwise equal to the reference micro-step loop — every
// StepResult field, every counter and every thread's state — under
// seeded random placements that change every Step: migrations and
// cache-pollution debt, barrier spin in two-thread gangs, multi-phase
// profiles, SMT sibling sharing, and slice lengths that are not a
// multiple of the micro-step.
func TestStepMatchesReference(t *testing.T) {
	smt := DefaultConfig()
	smt.NumCPUs = 8
	smt.SMTSiblings = 2
	odd := DefaultConfig()
	odd.MicroStep = 7 * units.Millisecond
	mixes := []string{"CG", "Raytrace", "LU CB", "BBMA", "nBBMA", "Volrend", "BBMA", "Raytrace"}
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
	}{
		{"default", DefaultConfig(), 1},
		{"smt", smt, 2},
		{"microstep-7ms", odd, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefMachine(t, tc.cfg)
			// Two identical thread sets, one per machine, matched by index.
			var got, want []*workload.Thread
			index := map[*workload.Thread]int{}
			for _, name := range mixes {
				p, ok := workload.ByName(name)
				if !ok {
					t.Fatalf("no profile %q", name)
				}
				a, b := workload.NewApp(p, name), workload.NewApp(p, name)
				for k := range a.Threads {
					index[a.Threads[k]] = len(got)
					got, want = append(got, a.Threads[k]), append(want, b.Threads[k])
				}
			}
			rng := rand.New(rand.NewSource(tc.seed))
			var barrierSpins, migrations, pollutions, oddSlices, repeats int
			type pick struct{ ti, cpu int }
			var sel []pick
			var pl, refPl []Placement
			for q := 0; q < 400; q++ {
				var dt units.Time
				switch rng.Intn(3) {
				case 0:
					dt = 200 * units.Millisecond
				case 1:
					dt = 100 * units.Millisecond
				default:
					dt = units.Time(1 + rng.Int63n(int64(250*units.Millisecond)))
				}
				if dt%tc.cfg.MicroStep != 0 {
					oddSlices++
				}
				// Half the Steps place a random subset of the unfinished
				// threads on random CPUs. The rest keep the previous
				// Step's threads, on the same CPUs (a repeat with a new
				// dt) or reshuffled (new SMT core occupancy), so a
				// Step often opens on the request vector the previous
				// one closed on.
				cpus := rng.Perm(tc.cfg.NumCPUs)
				switch mode := rng.Intn(4); {
				case mode < 2 || len(sel) == 0:
					sel = sel[:0]
					for _, ti := range rng.Perm(len(got)) {
						if len(sel) < len(cpus) && rng.Intn(3) != 0 {
							sel = append(sel, pick{ti, cpus[len(sel)]})
						}
					}
				case mode == 2:
					repeats++
				default:
					for k := range sel {
						sel[k].cpu = cpus[k]
					}
				}
				pl, refPl = pl[:0], refPl[:0]
				for _, s := range sel {
					if got[s.ti].Done() {
						continue
					}
					if got[s.ti].LastCPU() == s.cpu && m.lastThread[s.cpu] != got[s.ti] {
						pollutions++
					}
					pl = append(pl, Placement{Thread: got[s.ti], CPU: s.cpu})
					refPl = append(refPl, Placement{Thread: want[s.ti], CPU: s.cpu})
				}
				res, err := m.Step(pl, dt)
				if err != nil {
					t.Fatal(err)
				}
				wantRes := ref.step(refPl, dt)
				compareStep(t, q, res, wantRes, index, want)
				migrations += res.Migrations
				for i := range got {
					g, w := got[i], want[i]
					if g.Counters.Snapshot() != w.Counters.Snapshot() {
						t.Fatalf("quantum %d thread %d: counters %v, want %v", q, i, g.Counters.Snapshot(), w.Counters.Snapshot())
					}
					if !sameF(g.Progress(), w.Progress()) || !sameF(g.SpunTime(), w.SpunTime()) || !sameF(g.Debt(), w.Debt()) ||
						g.CurrentPhase() != w.CurrentPhase() || g.LastCPU() != ref.lastCPUOf(w) {
						t.Fatalf("quantum %d thread %d: state diverged", q, i)
					}
					if g.AtBarrier() {
						barrierSpins++
					}
				}
				if m.Now() != ref.now {
					t.Fatalf("quantum %d: now %v, want %v", q, m.Now(), ref.now)
				}
				for cpu, bt := range m.BusyTime() {
					if bt != ref.busyTime[cpu] {
						t.Fatalf("quantum %d: CPU %d busy %v, want %v", q, cpu, bt, ref.busyTime[cpu])
					}
				}
			}
			if barrierSpins == 0 || migrations == 0 || pollutions == 0 || oddSlices == 0 || repeats == 0 {
				t.Fatalf("coverage: %d barrier spins, %d migrations, %d pollutions, %d odd slices, %d repeats; want all > 0",
					barrierSpins, migrations, pollutions, oddSlices, repeats)
			}
		})
	}
}

func (m *refMachine) lastCPUOf(t *workload.Thread) int {
	if cpu, ok := m.lastCPU[t]; ok {
		return cpu
	}
	return -1
}

// compareStep compares two StepResults bitwise; index and wantThreads
// map each of got's threads to its twin in want.
func compareStep(t *testing.T, q int, got, want StepResult, index map[*workload.Thread]int, wantThreads []*workload.Thread) {
	t.Helper()
	if got.Elapsed != want.Elapsed || !sameOutcome(got.Outcome, want.Outcome) ||
		!sameF(got.MeanUtilization, want.MeanUtilization) || !sameF(float64(got.MeanServed), float64(want.MeanServed)) ||
		got.Migrations != want.Migrations || got.ContextSwitches != want.ContextSwitches ||
		got.BusyCPUs != want.BusyCPUs || len(got.Threads) != len(want.Threads) {
		t.Fatalf("quantum %d: step result\ngot  %+v\nwant %+v", q, got, want)
	}
	for i, g := range got.Threads {
		w := want.Threads[i]
		if wantThreads[index[g.Thread]] != w.Thread || g.CPU != w.CPU || g.Migrated != w.Migrated ||
			!sameF(g.Speed, w.Speed) || !sameF(float64(g.Rate), float64(w.Rate)) {
			t.Fatalf("quantum %d placement %d: got %+v, want %+v", q, i, g, w)
		}
	}
}
