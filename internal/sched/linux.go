package sched

import (
	"math/rand"

	"busaware/internal/machine"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Linux approximates the Linux 2.4 scheduler the paper compares
// against: a global runqueue of threads with per-epoch time-slice
// counters and a strong cache-affinity bonus (goodness()-style), and
// no notion of gangs or bus bandwidth.
//
// Per epoch every runnable thread holds a counter of quanta; each
// quantum, every processor greedily picks the highest-goodness
// runnable thread, where goodness is the remaining counter plus a
// large bonus for the processor the thread last ran on. When all
// counters are spent the epoch ends and counters are refilled. The
// runqueue is shuffled (deterministically, from the scheduler's seed)
// at each epoch boundary to model the arrival nondeterminism that makes
// the real Linux mix applications arbitrarily — including the
// pathological co-schedules of one application thread with three BBMA
// instances that the paper describes.
type Linux struct {
	quantum units.Time
	numCPUs int
	rng     *rand.Rand

	// queue is the runqueue in order, shuffled per epoch; each entry
	// carries its thread's state, so a Schedule call indexes the slice
	// instead of looking threads up in maps.
	queue      []linuxEntry
	placements []machine.Placement // Schedule's reusable result
}

// linuxEntry is one thread's runqueue slot.
type linuxEntry struct {
	t       *workload.Thread
	counter int // quanta left in this epoch
	// Per-Schedule state: whether the thread may still be picked this
	// call (runnable, counter left, not yet placed), and where it last
	// ran.
	eligible bool
	lastCPU  int
}

// LinuxQuantum is the baseline's time slice: the paper states the CPU
// manager's 200 ms quantum is "twice the quantum of the Linux
// scheduler".
const LinuxQuantum = 100 * units.Millisecond

// epochTicks is the counter refill per thread per epoch.
const epochTicks = 2

// affinityBonus biases a processor toward its previous occupant, as
// PROC_CHANGE_PENALTY does in the 2.4 goodness() function. Under heavy
// multiprogramming 2.4's global-runqueue design still migrated threads
// frequently (an idle processor steals whatever is runnable), which the
// paper leans on when it attributes LU CB's and Water-nsqr's slowdowns
// to migrations; a modest bonus reproduces that regime.
const affinityBonus = 1

// NewLinux builds the baseline for numCPUs processors with a
// deterministic seed.
func NewLinux(numCPUs int, seed int64) *Linux {
	return &Linux{
		quantum: LinuxQuantum,
		numCPUs: numCPUs,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Name implements Scheduler.
func (l *Linux) Name() string { return "Linux" }

// Quantum implements Scheduler.
func (l *Linux) Quantum() units.Time { return l.quantum }

// Add implements Scheduler.
func (l *Linux) Add(j *Job) {
	for _, t := range j.App.Threads {
		l.queue = append(l.queue, linuxEntry{t: t, counter: epochTicks})
	}
}

// Remove implements Scheduler.
func (l *Linux) Remove(j *Job) {
	kept := l.queue[:0]
	for _, e := range l.queue {
		if e.t.App != j.App {
			kept = append(kept, e)
		}
	}
	clear(l.queue[len(kept):])
	l.queue = kept
}

// Schedule implements Scheduler. The returned slice is reused by the
// next call.
func (l *Linux) Schedule(now units.Time, aff Affinity) []machine.Placement {
	// Epoch boundary: refill when every runnable thread is out of
	// counter.
	spent := true
	anyRunnable := false
	for i := range l.queue {
		e := &l.queue[i]
		if e.t.Done() {
			continue
		}
		anyRunnable = true
		if e.counter > 0 {
			spent = false
			break
		}
	}
	if !anyRunnable {
		return nil
	}
	if spent {
		for i := range l.queue {
			if e := &l.queue[i]; !e.t.Done() {
				e.counter = e.counter/2 + epochTicks
			}
		}
		l.rng.Shuffle(len(l.queue), func(i, j int) {
			l.queue[i], l.queue[j] = l.queue[j], l.queue[i]
		})
	}

	// Reset the per-call state in a full pass of its own: the scan
	// above stops early.
	for i := range l.queue {
		e := &l.queue[i]
		e.eligible = e.counter > 0 && !e.t.Done()
		e.lastCPU = -1
		if e.eligible && aff != nil {
			e.lastCPU = aff.LastCPU(e.t)
		}
	}

	placements := l.placements[:0]
	for cpu := 0; cpu < l.numCPUs; cpu++ {
		var best *linuxEntry
		bestGoodness := -1
		for i := range l.queue {
			e := &l.queue[i]
			if !e.eligible {
				continue
			}
			g := e.counter
			if e.lastCPU == cpu {
				g += affinityBonus
			}
			if g > bestGoodness {
				bestGoodness = g
				best = e
			}
		}
		if best == nil {
			continue
		}
		best.eligible = false
		best.counter--
		placements = append(placements, machine.Placement{Thread: best.t, CPU: cpu})
	}
	l.placements = placements
	return placements
}
