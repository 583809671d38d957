package sched

import (
	"busaware/internal/bus"
	"busaware/internal/machine"
	"busaware/internal/units"
)

// Optimal implements the paper's future-work proposal: "re-formulate
// the multiprocessor scheduling problem as a multi-parametric
// optimization problem and derive practical model-driven scheduling
// algorithms". Each quantum it enumerates every feasible gang subset
// of the applications list, predicts each subset's aggregate progress
// with the same contention model the machine uses, and runs the
// subset with the best weighted throughput.
//
// Starvation freedom is preserved the same way the paper's policies
// preserve it: the head of the applications list is always part of
// the chosen subset, and subsets are scored with a waiting-time weight
// so long-parked jobs pull their gang in.
//
// The search is exponential in the number of jobs, which is fine at
// the paper's scale (half a dozen jobs on four processors) and makes
// Optimal a reference upper bound for the practical policies rather
// than a deployable scheduler.
type Optimal struct {
	quantum units.Time
	numCPUs int
	model   *bus.Model

	list    jobList
	waiting map[*Job]int // quanta since last run
}

// NewOptimal builds the model-driven reference policy. The bus
// configuration should match the machine the workload runs on.
func NewOptimal(numCPUs int, busCfg bus.Config) (*Optimal, error) {
	m, err := bus.New(busCfg)
	if err != nil {
		return nil, err
	}
	return &Optimal{
		quantum: DefaultQuantum,
		numCPUs: numCPUs,
		model:   m,
		waiting: make(map[*Job]int),
	}, nil
}

// Name implements Scheduler.
func (o *Optimal) Name() string { return "Optimal" }

// Quantum implements Scheduler.
func (o *Optimal) Quantum() units.Time { return o.quantum }

// Add implements Scheduler.
func (o *Optimal) Add(j *Job) {
	o.list.add(j)
	o.waiting[j] = 0
}

// Remove implements Scheduler.
func (o *Optimal) Remove(j *Job) {
	o.list.remove(j)
	delete(o.waiting, j)
}

// score predicts the weighted progress of running exactly the given
// subset for one quantum: each thread's modelled speed, weighted by
// how long its job has been waiting (aging prevents starvation of
// low-value gangs).
func (o *Optimal) score(subset []*Job) float64 {
	var reqs []bus.Request
	var weights []float64
	for _, j := range subset {
		w := 1 + float64(o.waiting[j])*0.25
		for _, t := range j.App.Threads {
			if t.Done() {
				continue
			}
			reqs = append(reqs, bus.Request{Demand: t.Demand(), StallFrac: t.StallFrac()})
			weights = append(weights, w)
		}
	}
	if len(reqs) == 0 {
		return 0
	}
	grants, _ := o.model.Allocate(reqs)
	var s float64
	for i, g := range grants {
		s += g.Speed * weights[i]
	}
	return s
}

// Schedule implements Scheduler via exhaustive subset search.
func (o *Optimal) Schedule(now units.Time, aff Affinity) []machine.Placement {
	jobs := o.list.all()
	// Runnable jobs with their gang sizes.
	var cands []*Job
	var sizes []int
	for _, j := range jobs {
		if n := runnableThreads(j); n > 0 && n <= o.numCPUs {
			cands = append(cands, j)
			sizes = append(sizes, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}

	var best []*Job
	bestScore := -1.0
	n := len(cands)
	// Enumerate subsets; cap the width to keep the search bounded even
	// if a caller registers many jobs.
	if n > 16 {
		n = 16
	}
	for mask := 1; mask < 1<<n; mask++ {
		if mask&1 == 0 {
			continue // head of list must run: starvation freedom
		}
		threads := 0
		var subset []*Job
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				threads += sizes[i]
				if threads > o.numCPUs {
					subset = nil
					break
				}
				subset = append(subset, cands[i])
			}
		}
		if subset == nil {
			continue
		}
		if s := o.score(subset); s > bestScore {
			bestScore = s
			best = subset
		}
	}

	ran := make(map[*Job]bool, len(best))
	for _, j := range best {
		ran[j] = true
	}
	for _, j := range cands {
		if ran[j] {
			o.waiting[j] = 0
		} else {
			o.waiting[j]++
		}
	}
	o.list.rotateToTail(ran)
	return assignCPUs(best, aff, o.numCPUs)
}
