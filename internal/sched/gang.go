package sched

import (
	"busaware/internal/machine"
	"busaware/internal/units"
)

// Gang is a bandwidth-oblivious gang round-robin: it allocates
// applications first-fit in list order and rotates the list, exactly
// like the paper's policies but with no fitness metric. It isolates
// how much of the improvement comes from gang scheduling itself versus
// from the bandwidth-driven pairing.
type Gang struct {
	quantum units.Time
	numCPUs int
	list    jobList
}

// NewGang builds the gang round-robin ablation scheduler.
func NewGang(numCPUs int, opts ...GangOption) *Gang {
	g := &Gang{quantum: DefaultQuantum, numCPUs: numCPUs}
	for _, o := range opts {
		o(g)
	}
	return g
}

// GangOption tweaks a Gang scheduler.
type GangOption func(*Gang)

// WithGangQuantum overrides the 200ms default quantum.
func WithGangQuantum(q units.Time) GangOption {
	return func(g *Gang) {
		if q > 0 {
			g.quantum = q
		}
	}
}

// Name implements Scheduler.
func (g *Gang) Name() string { return "GangRR" }

// Quantum implements Scheduler.
func (g *Gang) Quantum() units.Time { return g.quantum }

// Add implements Scheduler.
func (g *Gang) Add(j *Job) {
	g.list.add(j)
}

// Remove implements Scheduler.
func (g *Gang) Remove(j *Job) {
	g.list.remove(j)
}

// Schedule implements Scheduler.
func (g *Gang) Schedule(now units.Time, aff Affinity) []machine.Placement {
	free := g.numCPUs
	var selected []*Job
	ran := make(map[*Job]bool)
	for _, j := range g.list.all() {
		n := runnableThreads(j)
		if n == 0 || n > free {
			continue
		}
		selected = append(selected, j)
		ran[j] = true
		free -= n
		if free == 0 {
			break
		}
	}
	g.list.rotateToTail(ran)
	return assignCPUs(selected, aff, g.numCPUs)
}
