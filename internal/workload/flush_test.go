package workload

import (
	"math"
	"math/rand"
	"testing"

	"busaware/internal/cache"
	"busaware/internal/perfctr"
	"busaware/internal/units"
)

// Property: summing a slice's micro-step CounterDeltas, advancing the
// work with AdvanceWork, and flushing the sums once with AddAll — what
// the machine's Step does — leaves the counters, the thread state and
// every Monitor.Poll rate bitwise equal to calling Advance per
// micro-step. Counters start a few increments below the hardware wrap,
// so the flushed sums cross it.
func TestCounterDeltasFlushMatchesAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	wrap := uint64(1) << perfctr.CounterBits
	wrapped := false
	for trial := 0; trial < 300; trial++ {
		hit := rng.Float64()
		switch trial % 5 {
		case 0:
			hit = 1 // no misses: the L2 events stay untouched
		case 1:
			hit = 0
		}
		p := Profile{
			Name:     "flush",
			Threads:  1,
			SoloTime: units.Time(1+rng.Intn(5)) * units.Second,
			Phases: []Phase{
				{Duration: units.Time(1+rng.Intn(50)) * units.Millisecond, Demand: units.Rate(rng.Float64() * 25), StallFrac: rng.Float64()},
				{Duration: units.Time(1+rng.Intn(50)) * units.Millisecond, Demand: units.Rate(rng.Float64() * 25), StallFrac: rng.Float64()},
			},
			WorkingSet: cache.WorkingSet{Bytes: 128 * units.KB, HitRate: hit},
		}
		ref := NewApp(p, "ref").Threads[0]
		bat := NewApp(p, "bat").Threads[0]
		for ev := perfctr.Event(0); ev < perfctr.Event(perfctr.NumEvents); ev++ {
			start := wrap - uint64(1+rng.Intn(4))*uint64(1+rng.Intn(1_000_000))
			ref.Counters.Add(ev, start)
			bat.Counters.Add(ev, start)
		}
		refMon, batMon := perfctr.NewMonitor(&ref.Counters), perfctr.NewMonitor(&bat.Counters)
		refMon.Poll(0)
		batMon.Poll(0)

		var now units.Time
		for step := 0; step < 8; step++ {
			before := ref.Counters.Snapshot()
			var d [perfctr.NumEvents]uint64
			for s, micro := 0, 1+rng.Intn(12); s < micro; s++ {
				wall := units.Time(1 + rng.Intn(10*int(units.Millisecond)))
				rate := units.Rate(rng.Float64() * 30)
				solo := float64(wall) * rng.Float64()
				ref.Advance(solo, float64(wall), rate)
				for k, n := range bat.CounterDeltas(float64(wall), rate) {
					d[k] += n
				}
				bat.AdvanceWork(solo)
				now += wall
			}
			bat.Counters.AddAll(d)

			got, want := bat.Counters.Snapshot(), ref.Counters.Snapshot()
			if got != want {
				t.Fatalf("trial %d step %d: counters %v, per-micro-step %v", trial, step, got, want)
			}
			for ev := range want {
				if want[ev] < before[ev] {
					wrapped = true
				}
			}
			if bat.Progress() != ref.Progress() || bat.SpunTime() != ref.SpunTime() || bat.Debt() != ref.Debt() {
				t.Fatalf("trial %d step %d: thread state diverged", trial, step)
			}
			gotRates, gotOK := batMon.Poll(now)
			wantRates, wantOK := refMon.Poll(now)
			if gotOK != wantOK {
				t.Fatalf("trial %d step %d: poll ok %v, want %v", trial, step, gotOK, wantOK)
			}
			for ev := range wantRates {
				if math.Float64bits(gotRates[ev]) != math.Float64bits(wantRates[ev]) {
					t.Fatalf("trial %d step %d: %v rate %v, want %v", trial, step, perfctr.Event(ev), gotRates[ev], wantRates[ev])
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no counter crossed the hardware wrap; the seeds do not exercise it")
	}
}
