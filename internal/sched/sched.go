// Package sched implements the scheduling policies evaluated in the
// paper: the two bus-bandwidth-aware gang-like policies ("Latest
// Quantum" and "Quanta Window"), the Linux 2.4-style baseline they are
// compared against, and several ablation schedulers (bandwidth-
// oblivious gang round-robin, per-thread round-robin, and a
// clairvoyant oracle).
//
// A Scheduler owns an ordered list of Jobs (one per application, the
// paper's "applications list") and is asked once per quantum to
// produce processor placements. Bandwidth-aware policies consume
// per-thread bus-transaction-rate samples pushed by the CPU manager
// after every quantum.
package sched

import (
	"busaware/internal/machine"
	"busaware/internal/stats"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// Affinity exposes where threads last ran, so schedulers can preserve
// cache affinity when assigning processors.
type Affinity interface {
	LastCPU(*workload.Thread) int
}

// Scheduler is the common interface of all policies.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Quantum is the policy's scheduling quantum.
	Quantum() units.Time
	// Add registers a new application (its "connection" to the CPU
	// manager); it joins the tail of the applications list.
	Add(*Job)
	// Remove unregisters a finished application.
	Remove(*Job)
	// Schedule picks the placements for the next quantum.
	Schedule(now units.Time, aff Affinity) []machine.Placement
}

// Job is the scheduler's bookkeeping for one application.
type Job struct {
	App *workload.App

	// window accumulates per-thread bus-transaction-rate samples
	// (trans/usec). Capacity 1 degenerates to "latest quantum".
	window *stats.Window
	ewma   *stats.EWMA

	// staleQuanta counts consecutive quanta the job was scheduled to
	// run but produced no fresh sample — the telemetry-loss signal the
	// stale-fallback degradation rule keys on. Quanta spent blocked do
	// not count: a blocked application publishes nothing by design and
	// its last estimate legitimately persists (the paper's rule).
	staleQuanta    int
	awaitingSample bool
}

// NewJob wraps app with a sample window of length windowLen (minimum
// 1). If ewmaAlpha > 0 an exponentially weighted average is maintained
// as well, for the EWMA policy variant.
func NewJob(app *workload.App, windowLen int, ewmaAlpha float64) *Job {
	if windowLen < 1 {
		windowLen = 1
	}
	j := &Job{App: app, window: stats.NewWindow(windowLen)}
	if ewmaAlpha > 0 {
		j.ewma = &stats.EWMA{Alpha: ewmaAlpha}
	}
	return j
}

// Threads returns the gang size.
func (j *Job) Threads() int { return len(j.App.Threads) }

// PushSample records the application's measured bus bandwidth per
// thread over the last quantum it ran (BBW/thread in the paper).
func (j *Job) PushSample(perThread units.Rate) {
	j.window.Push(float64(perThread))
	if j.ewma != nil {
		j.ewma.Push(float64(perThread))
	}
	j.staleQuanta = 0
	j.awaitingSample = false
}

// settleQuantum closes out the previous quantum: if the job ran it
// and no fresh sample arrived since, that quantum was stale. Called at
// the top of Schedule, so staleness is visible to the selection that
// follows.
func (j *Job) settleQuantum() {
	if j.awaitingSample {
		j.staleQuanta++
		j.awaitingSample = false
	}
}

// noteScheduled records that the job is about to run one quantum and
// owes the policy a sample for it.
func (j *Job) noteScheduled() {
	j.awaitingSample = true
}

// StaleQuanta returns how many consecutive scheduled quanta elapsed
// without a fresh sample.
func (j *Job) StaleQuanta() int { return j.staleQuanta }

// ResetSamples discards the job's sampling history and staleness, as
// after a client crash/reconnect: the application starts over with an
// empty window, exactly like a freshly admitted job.
func (j *Job) ResetSamples() {
	j.window.Reset()
	if j.ewma != nil {
		j.ewma.Reset()
	}
	j.staleQuanta = 0
	j.awaitingSample = false
}

// LatestRate returns the most recent per-thread sample.
func (j *Job) LatestRate() units.Rate { return units.Rate(j.window.Latest()) }

// WindowRate returns the moving-window mean per-thread rate.
func (j *Job) WindowRate() units.Rate { return units.Rate(j.window.Mean()) }

// EWMARate returns the exponentially weighted mean, or the latest
// sample if the job was created without an EWMA.
func (j *Job) EWMARate() units.Rate {
	if j.ewma == nil {
		return j.LatestRate()
	}
	return units.Rate(j.ewma.Value())
}

// Samples returns how many samples the job has received (capped at the
// window length).
func (j *Job) Samples() int { return j.window.Len() }

// TrueRate returns the application's instantaneous per-thread demand
// straight from the workload model — information a real scheduler
// cannot have. Used only by the oracle ablation.
func (j *Job) TrueRate() units.Rate {
	if len(j.App.Threads) == 0 {
		return 0
	}
	var sum units.Rate
	for _, t := range j.App.Threads {
		sum += t.Demand()
	}
	return sum / units.Rate(len(j.App.Threads))
}

// jobList is the shared ordered applications list with the paper's
// end-of-quantum rotation semantics.
type jobList struct {
	jobs []*Job
	// moved is rotation scratch, reused so the per-quantum rotation
	// allocates nothing in steady state.
	moved []*Job
}

func (l *jobList) add(j *Job)  { l.jobs = append(l.jobs, j) }
func (l *jobList) all() []*Job { return l.jobs }

func (l *jobList) remove(j *Job) {
	for i, x := range l.jobs {
		if x == j {
			l.jobs = append(l.jobs[:i], l.jobs[i+1:]...)
			return
		}
	}
}

// rotateToTail moves the given jobs (those that just ran) to the end of
// the list, preserving their relative order — "the previously running
// jobs are then transferred to the end of the applications list".
// The partition is done in place with a reusable scratch buffer.
func (l *jobList) rotateToTail(ran map[*Job]bool) {
	if len(ran) == 0 {
		return
	}
	kept := l.jobs[:0]
	moved := l.moved[:0]
	for _, j := range l.jobs {
		if ran[j] {
			moved = append(moved, j)
		} else {
			kept = append(kept, j)
		}
	}
	l.jobs = append(kept, moved...)
	l.moved = moved[:0]
}

// assignScratch holds the reusable buffers of assignCPUsInto, so a
// scheduler's per-quantum layout pass allocates nothing in steady
// state.
type assignScratch struct {
	free       []bool
	placements []machine.Placement
	homeless   []*workload.Thread
}

// assignCPUs lays the threads of the selected jobs onto processors
// with fresh buffers; hot paths keep an assignScratch and call
// assignCPUsInto instead.
func assignCPUs(selected []*Job, aff Affinity, numCPUs int) []machine.Placement {
	return assignCPUsInto(new(assignScratch), selected, aff, numCPUs)
}

// assignCPUsInto lays the threads of the selected jobs onto processors,
// preferring each thread's previous processor to preserve affinity.
// It assumes the caller verified the threads fit. The returned slice
// aliases sc's buffers and is valid until the next call with sc.
func assignCPUsInto(sc *assignScratch, selected []*Job, aff Affinity, numCPUs int) []machine.Placement {
	if cap(sc.free) < numCPUs {
		sc.free = make([]bool, numCPUs)
	}
	free := sc.free[:numCPUs]
	for i := range free {
		free[i] = true
	}
	placements := sc.placements[:0]
	homeless := sc.homeless[:0]

	for _, j := range selected {
		for _, t := range j.App.Threads {
			if t.Done() {
				continue
			}
			last := -1
			if aff != nil {
				last = aff.LastCPU(t)
			}
			if last >= 0 && last < numCPUs && free[last] {
				free[last] = false
				placements = append(placements, machine.Placement{Thread: t, CPU: last})
			} else {
				homeless = append(homeless, t)
			}
		}
	}
	cpu := 0
	for _, t := range homeless {
		for cpu < numCPUs && !free[cpu] {
			cpu++
		}
		if cpu == numCPUs {
			break // shouldn't happen if the caller sized correctly
		}
		free[cpu] = false
		placements = append(placements, machine.Placement{Thread: t, CPU: cpu})
	}
	sc.placements = placements[:0]
	sc.homeless = homeless[:0]
	return placements
}

// runnableThreads counts a job's unfinished threads.
func runnableThreads(j *Job) int {
	n := 0
	for _, t := range j.App.Threads {
		if !t.Done() {
			n++
		}
	}
	return n
}
