package sched

import (
	"math"

	"busaware/internal/machine"
	"busaware/internal/units"
)

// Estimator selects how a bandwidth-aware policy estimates each
// application's bus bandwidth per thread.
type Estimator int

// The estimator variants.
const (
	// EstLatest uses the last quantum's sample only — the paper's
	// "Latest Quantum" policy.
	EstLatest Estimator = iota
	// EstWindow uses a moving-window average — "Quanta Window".
	EstWindow
	// EstEWMA uses an exponentially weighted average — the refinement
	// the paper suggests for longer windows.
	EstEWMA
	// EstOracle reads the true instantaneous demand from the workload
	// model — a clairvoyance upper bound for ablation only.
	EstOracle
)

func (e Estimator) String() string {
	switch e {
	case EstLatest:
		return "latest"
	case EstWindow:
		return "window"
	case EstEWMA:
		return "ewma"
	case EstOracle:
		return "oracle"
	default:
		return "unknown"
	}
}

// BandwidthAware implements the paper's Section 4 algorithm: gang-like
// allocation driven by the proximity between each application's bus
// bandwidth per thread and the available bus bandwidth per unallocated
// processor.
type BandwidthAware struct {
	name      string
	quantum   units.Time
	numCPUs   int
	capacity  units.Rate
	estimator Estimator
	windowLen int
	ewmaAlpha float64
	guard     bool
	slack     float64
	staleK    int

	list jobList

	// Selection scratch, reused every quantum. The selection loop is
	// O(n²) fitness probes; caching each job's estimator value (and
	// runnable-thread count and degradation flag) here once per
	// Schedule call keeps every probe O(1) and the loop allocation-
	// free. Valid only within one Select call.
	est      []units.Rate
	nThreads []int
	degr     []bool
	chosen   []bool
	selected []*Job
	ran      map[*Job]bool
	assign   assignScratch
}

// Option tweaks a BandwidthAware scheduler.
type Option func(*BandwidthAware)

// WithQuantum overrides the 200ms default quantum.
func WithQuantum(q units.Time) Option {
	return func(b *BandwidthAware) {
		if q > 0 {
			b.quantum = q
		}
	}
}

// WithWindow overrides the sample-window length (Quanta Window uses 5).
func WithWindow(w int) Option {
	return func(b *BandwidthAware) {
		if w >= 1 {
			b.windowLen = w
		}
	}
}

// WithEWMAAlpha sets the EWMA weight for EstEWMA schedulers.
func WithEWMAAlpha(a float64) Option {
	return func(b *BandwidthAware) {
		if a > 0 && a <= 1 {
			b.ewmaAlpha = a
		}
	}
}

// DefaultOvercommitSlack is the fraction of bus capacity by which a
// candidate may overshoot the remaining budget and still count as
// fitting. Mild overcommitment (a few percent beyond sustainable
// bandwidth) costs almost nothing — the contention curve is flat until
// deep saturation — while rejecting it would needlessly halve the CPU
// share of applications that almost fit next to their own twin.
const DefaultOvercommitSlack = 0.13

// WithOvercommitSlack overrides DefaultOvercommitSlack (0 disables).
func WithOvercommitSlack(s float64) Option {
	return func(b *BandwidthAware) {
		if s >= 0 {
			b.slack = s
		}
	}
}

// WithSaturationGuard enables an optional refinement over the paper's
// selection loop: candidates whose whole-gang demand overshoots the
// remaining bus budget (plus the overcommit slack) are excluded from
// the fitness pass, and when nothing fits the policy pairs like with
// like — concentrating unavoidable saturation on jobs that are
// bus-bound anyway. The experiments ship with the literal paper
// algorithm; the guard is an ablation (see EXPERIMENTS.md), useful
// when antagonists should be segregated strictly.
func WithSaturationGuard() Option {
	return func(b *BandwidthAware) { b.guard = true }
}

// DefaultStaleQuanta is the stale-fallback horizon K enabled by
// WithStaleFallback: a job's last-known BBW estimate is held for up to
// K consecutive scheduled-but-unsampled quanta before the policy stops
// trusting it.
const DefaultStaleQuanta = 4

// WithStaleFallback enables graceful degradation under telemetry loss:
// a job that runs for k consecutive quanta without delivering a fresh
// bandwidth sample is treated as *degraded* — its held estimate is
// considered garbage rather than scheduled on. Degraded jobs compete
// in plain applications-list order (Linux-like round-robin fairness)
// after the fresh jobs have been placed by fitness, and when every job
// is degraded the selection loop degenerates to bandwidth-oblivious
// gang round-robin. Admission never stalls: a degraded job is always
// an eligible candidate, so the loop fails soft toward the baseline
// instead of deadlocking or pairing jobs on stale numbers.
//
// Disabled by default (k <= 0): the stock policies hold the last
// estimate forever, exactly as the paper specifies.
func WithStaleFallback(k int) Option {
	return func(b *BandwidthAware) {
		if k > 0 {
			b.staleK = k
		}
	}
}

// DefaultQuantum is the CPU manager's quantum: 200 ms, twice the Linux
// quantum (the paper found 100 ms caused scheduling conflicts with the
// kernel).
const DefaultQuantum = 200 * units.Millisecond

// DefaultWindow is the Quanta Window length the paper evaluates: 5
// samples, which bounds the average distance between the observed
// transaction pattern and the moving average to ~5% for irregular
// applications.
const DefaultWindow = 5

// NewLatestQuantum builds the "Latest Quantum" policy for a machine
// with numCPUs processors and the given sustained bus capacity.
func NewLatestQuantum(numCPUs int, capacity units.Rate, opts ...Option) *BandwidthAware {
	return newBandwidthAware("LatestQuantum", EstLatest, 1, numCPUs, capacity, opts...)
}

// NewQuantaWindow builds the "Quanta Window" policy (window of 5).
func NewQuantaWindow(numCPUs int, capacity units.Rate, opts ...Option) *BandwidthAware {
	return newBandwidthAware("QuantaWindow", EstWindow, DefaultWindow, numCPUs, capacity, opts...)
}

// NewEWMAPolicy builds the exponentially-weighted variant.
func NewEWMAPolicy(numCPUs int, capacity units.Rate, alpha float64, opts ...Option) *BandwidthAware {
	b := newBandwidthAware("EWMA", EstEWMA, DefaultWindow, numCPUs, capacity, opts...)
	if alpha > 0 && alpha <= 1 {
		b.ewmaAlpha = alpha
	}
	return b
}

// NewOracle builds the clairvoyant ablation policy.
func NewOracle(numCPUs int, capacity units.Rate, opts ...Option) *BandwidthAware {
	return newBandwidthAware("Oracle", EstOracle, 1, numCPUs, capacity, opts...)
}

func newBandwidthAware(name string, est Estimator, window, numCPUs int, capacity units.Rate, opts ...Option) *BandwidthAware {
	b := &BandwidthAware{
		name:      name,
		quantum:   DefaultQuantum,
		numCPUs:   numCPUs,
		capacity:  capacity,
		estimator: est,
		windowLen: window,
		ewmaAlpha: 0.4,
		slack:     DefaultOvercommitSlack,
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Name implements Scheduler.
func (b *BandwidthAware) Name() string { return b.name }

// Quantum implements Scheduler.
func (b *BandwidthAware) Quantum() units.Time { return b.quantum }

// WindowLen returns the configured sample-window length.
func (b *BandwidthAware) WindowLen() int { return b.windowLen }

// Estimator returns the policy's estimator kind.
func (b *BandwidthAware) Estimator() Estimator { return b.estimator }

// Add implements Scheduler. Jobs join with a window sized for this
// policy.
func (b *BandwidthAware) Add(j *Job) {
	b.list.add(j)
}

// Remove implements Scheduler.
func (b *BandwidthAware) Remove(j *Job) {
	b.list.remove(j)
}

// Jobs exposes the current applications list order (head first), for
// tests and introspection.
func (b *BandwidthAware) Jobs() []*Job { return b.list.all() }

// StaleFallback returns the stale-quanta horizon K (0 = disabled).
func (b *BandwidthAware) StaleFallback() int { return b.staleK }

// degraded reports whether j's estimate has gone stale beyond the
// fallback horizon. Always false when the fallback is disabled.
func (b *BandwidthAware) degraded(j *Job) bool {
	return b.staleK > 0 && j.StaleQuanta() >= b.staleK
}

// estimate returns BBW/thread for job j under this policy's estimator.
func (b *BandwidthAware) estimate(j *Job) units.Rate {
	switch b.estimator {
	case EstLatest:
		return j.LatestRate()
	case EstWindow:
		return j.WindowRate()
	case EstEWMA:
		return j.EWMARate()
	case EstOracle:
		return j.TrueRate()
	default:
		return j.LatestRate()
	}
}

// Fitness implements Equation 1/2 of the paper: the proximity between
// an application's bandwidth per thread and the available bandwidth
// per unallocated processor.
func Fitness(abbwPerProc, bbwPerThread units.Rate) float64 {
	return 1000 / (1 + math.Abs(float64(abbwPerProc-bbwPerThread)))
}

// Select runs the selection loop and returns the applications to run
// next quantum, in allocation order. Exposed for tests; most callers
// use Schedule.
//
// The loop follows the paper: the head of the applications list is
// allocated by default (starvation freedom), then repeated list
// traversals pick the fittest application by Equation 1/2 until the
// processors run out.
//
// By default every candidate competes on the fitness metric alone,
// exactly as the paper specifies. Note that the metric only behaves as
// the paper describes when the estimates approximate bandwidth
// *requirements*: raw consumption samples deflate under contention
// until every job measures alike and the policies lose to Linux (the
// sampling ablation in EXPERIMENTS.md quantifies this). An optional
// saturation guard (WithSaturationGuard) additionally excludes
// candidates that would overshoot the remaining bus budget, and an
// optional stale fallback (WithStaleFallback) demotes jobs whose
// estimates went stale to round-robin admission.
// The returned slice aliases internal scratch and is valid until the
// next Select or Schedule call.
func (b *BandwidthAware) Select() []*Job {
	jobs := b.list.all()
	// Cache each job's estimator value, runnable-thread count and
	// degradation flag once: none of them can change during the
	// selection (samples arrive only between quanta), and the window
	// estimators cost O(W) per evaluation while the loop below probes
	// each candidate once per free processor.
	b.est = b.est[:0]
	b.nThreads = b.nThreads[:0]
	b.degr = b.degr[:0]
	b.chosen = b.chosen[:0]
	for _, j := range jobs {
		b.est = append(b.est, b.estimate(j))
		b.nThreads = append(b.nThreads, runnableThreads(j))
		b.degr = append(b.degr, b.degraded(j))
		b.chosen = append(b.chosen, false)
	}
	selected := b.selected[:0]
	freeCPUs := b.numCPUs
	allocatedThreads := 0
	var allocatedBW units.Rate

	// The application at the top of the list is allocated by default:
	// this guarantees freedom from bandwidth starvation.
	for i, j := range jobs {
		n := b.nThreads[i]
		if n == 0 || n > freeCPUs {
			continue
		}
		selected = append(selected, j)
		b.chosen[i] = true
		freeCPUs -= n
		allocatedThreads += n
		if !b.degr[i] {
			allocatedBW += b.est[i] * units.Rate(n)
		}
		break
	}

	for freeCPUs > 0 {
		remaining := b.capacity - allocatedBW
		abbwPerProc := remaining / units.Rate(freeCPUs)
		best := -1
		bestFit := -1.0
		fallback := -1
		fallbackFit := -1.0
		// rrPick is the first degraded candidate in list order: a job
		// whose estimate went stale beyond the fallback horizon is not
		// scheduled on garbage, but stays admissible round-robin style
		// so the admission loop degrades gracefully instead of
		// starving it or deadlocking.
		rrPick := -1
		var allocAvg units.Rate
		if allocatedThreads > 0 {
			allocAvg = allocatedBW / units.Rate(allocatedThreads)
		}
		for i := range jobs {
			if b.chosen[i] {
				continue
			}
			n := b.nThreads[i]
			if n == 0 || n > freeCPUs {
				continue
			}
			if b.degr[i] {
				if rrPick < 0 {
					rrPick = i
				}
				continue
			}
			est := b.est[i]
			fits := !b.guard || est*units.Rate(n) <= remaining+b.capacity*units.Rate(b.slack)
			if fits {
				if fit := Fitness(abbwPerProc, est); fit > bestFit {
					bestFit = fit
					best = i
				}
			} else if fit := Fitness(allocAvg, est); fit > fallbackFit {
				fallbackFit = fit
				fallback = i
			}
		}
		if best < 0 {
			best = fallback
		}
		if best < 0 {
			best = rrPick
		}
		if best < 0 {
			break
		}
		n := b.nThreads[best]
		selected = append(selected, jobs[best])
		b.chosen[best] = true
		freeCPUs -= n
		allocatedThreads += n
		if !b.degr[best] {
			allocatedBW += b.est[best] * units.Rate(n)
		}
	}
	b.selected = selected[:0]
	return selected
}

// Schedule implements Scheduler: select applications, rotate them to
// the list tail, and lay their threads out with affinity preserved.
// The returned placements alias internal scratch and are valid until
// the next Schedule call.
func (b *BandwidthAware) Schedule(now units.Time, aff Affinity) []machine.Placement {
	if b.staleK > 0 {
		for _, j := range b.list.all() {
			j.settleQuantum()
		}
	}
	selected := b.Select()
	if b.ran == nil {
		b.ran = make(map[*Job]bool, len(selected))
	} else {
		clear(b.ran)
	}
	for _, j := range selected {
		b.ran[j] = true
		if b.staleK > 0 {
			j.noteScheduled()
		}
	}
	b.list.rotateToTail(b.ran)
	return assignCPUsInto(&b.assign, selected, aff, b.numCPUs)
}
