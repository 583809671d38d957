// Package bus models the shared front-side bus of the paper's 4-way
// Xeon SMP: a single split-transaction bus with bounded sustained
// throughput whose per-transaction latency inflates under load.
//
// # Model
//
// Each running thread i is characterized by its solo bus demand d_i
// (transactions/usec when it runs alone) and its memory-stall fraction
// f_i (share of its solo runtime spent waiting for bus transactions).
// When a set of threads shares the bus, every transaction's latency is
// stretched by a common factor X >= 1, so thread i progresses at
//
//	speed_i = 1 / ((1 - f_i) + f_i*X)
//
// of its solo pace and issues an actual rate g_i = d_i * speed_i. The
// bus is a closed queueing system: the stretch settles at the unique
// fixed point where the M/M/1-flavoured delay curve evaluated at the
// resulting utilization reproduces X itself,
//
//	X = 1 + k * rho^g/(1-rho),  rho = (sum_i g_i) / C_eff
//
// with effective capacity C_eff = C * (1 - a*(n-1)) degraded by
// arbitration among n active bus masters. The fixed point exists and
// is unique because served throughput falls monotonically in X while
// the delay curve rises monotonically in utilization; we find it by
// bisection.
//
// The constants are calibrated in internal/workload so the model
// reproduces the paper's Section 3 measurements: a CPU-bound thread
// (f~0) is unharmed even on a saturated bus, while a memory-bound
// application sharing the bus with two copies of the BBMA
// microbenchmark slows down 2x-3x (Figure 1B).
package bus

import (
	"errors"
	"fmt"
	"math"

	"busaware/internal/units"
)

// Config holds the bus model parameters.
type Config struct {
	// Capacity is the sustained transaction throughput with all
	// processors issuing, as measured by STREAM (29.5 trans/usec on
	// the paper's machine).
	Capacity units.Rate

	// ArbPenalty is the fractional capacity lost per additional bus
	// master beyond the first, modelling arbitration overhead. The
	// paper observes that "contention and arbitration contribute to
	// bandwidth consumption" before nominal saturation.
	ArbPenalty float64

	// MinCapacityFrac floors the arbitration degradation so capacity
	// never collapses entirely.
	MinCapacityFrac float64

	// QueueFactor is k in the delay curve 1 + k*rho^g/(1-rho).
	QueueFactor float64

	// CurveExponent is g in the delay curve. A large exponent keeps the
	// curve flat at moderate utilization — per-thread demands are
	// calibrated from *solo measured* runs, which already include the
	// application's self-contention — and makes it bite only near
	// saturation, which is where the paper's machine degraded.
	CurveExponent float64

	// MaxStretch bounds the latency inflation searched for; demand far
	// beyond capacity saturates at this stretch.
	MaxStretch float64

	// MasterThreshold is the demand (trans/usec) above which a thread
	// counts as a bus master for arbitration purposes. nBBMA-like
	// threads (0.0037 trans/usec) should not.
	MasterThreshold units.Rate

	// Unfairness models the arbitration advantage of streaming threads:
	// a thread that always has the next miss queued (BBMA) wins
	// back-to-back arbitration rounds, while threads with dependent
	// misses lose turns. A thread's latency stretch is amplified by
	// 1 + Unfairness*(1 - d/dmax), so the lightest co-runner suffers
	// the most relative delay — the effect behind the paper's 2.5-2.8x
	// victim slowdowns next to BBMA. Zero restores fair sharing.
	Unfairness float64
}

// DefaultConfig returns the calibration used throughout the
// reproduction, pinned to the paper's machine constants.
func DefaultConfig() Config {
	return Config{
		Capacity:        units.SustainedBusRate,
		ArbPenalty:      0.004,
		MinCapacityFrac: 0.5,
		QueueFactor:     0.05,
		CurveExponent:   6,
		MaxStretch:      10000,
		MasterThreshold: 0.25,
		Unfairness:      0.75,
	}
}

// Validate reports configuration errors. Every field must be finite:
// a NaN fails each ordered comparison below, so it would otherwise
// pass silently.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"capacity", float64(c.Capacity)},
		{"arbitration penalty", c.ArbPenalty},
		{"min capacity fraction", c.MinCapacityFrac},
		{"queue factor", c.QueueFactor},
		{"curve exponent", c.CurveExponent},
		{"max stretch", c.MaxStretch},
		{"master threshold", float64(c.MasterThreshold)},
		{"unfairness", c.Unfairness},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("bus: %s %v is not finite", f.name, f.v)
		}
	}
	if c.Capacity <= 0 {
		return errors.New("bus: capacity must be positive")
	}
	if c.ArbPenalty < 0 || c.ArbPenalty >= 1 {
		return fmt.Errorf("bus: arbitration penalty %v out of [0,1)", c.ArbPenalty)
	}
	if c.MinCapacityFrac <= 0 || c.MinCapacityFrac > 1 {
		return fmt.Errorf("bus: min capacity fraction %v out of (0,1]", c.MinCapacityFrac)
	}
	if c.QueueFactor < 0 {
		return errors.New("bus: queue factor must be non-negative")
	}
	if c.CurveExponent < 1 {
		return errors.New("bus: curve exponent must be >= 1")
	}
	if c.MaxStretch < 1 {
		return errors.New("bus: max stretch must be >= 1")
	}
	if c.MasterThreshold < 0 {
		return errors.New("bus: master threshold must be non-negative")
	}
	if c.Unfairness < 0 {
		return errors.New("bus: unfairness must be non-negative")
	}
	return nil
}

// Request describes one running thread's bus behaviour.
type Request struct {
	// Demand is the thread's solo transaction rate, trans/usec.
	Demand units.Rate
	// StallFrac is the fraction of solo runtime spent stalled on bus
	// transactions, in [0,1].
	StallFrac float64
}

// Grant is the bus model's answer for one thread.
type Grant struct {
	// Speed is the thread's progress rate as a fraction of solo speed,
	// in (0,1].
	Speed float64
	// Rate is the transaction rate actually achieved, trans/usec.
	Rate units.Rate
}

// Outcome summarizes one allocation round.
type Outcome struct {
	// Masters is the number of threads that counted as bus masters.
	Masters int
	// EffectiveCapacity is capacity after arbitration degradation.
	EffectiveCapacity units.Rate
	// Offered is the sum of solo demands.
	Offered units.Rate
	// Served is the sum of achieved rates.
	Served units.Rate
	// Utilization is Served / EffectiveCapacity.
	Utilization float64
	// Stretch is the equilibrium latency inflation X.
	Stretch float64
	// Saturated reports whether the equilibrium sits on the congested
	// branch (utilization above the saturation knee).
	Saturated bool
}

// Model evaluates bus contention for co-scheduled thread sets.
//
// Equilibria are memoized process-wide: demands are piecewise-constant
// across workload phases, so the same request vectors recur within a
// run and across runs, and each distinct vector's stretch is solved
// once and replayed from a table shared by every Model built from an
// equal Config (cache.go). Safe for concurrent use.
type Model struct {
	cfg  Config
	memo *stretchMemo // nil solves every vector afresh
}

// New builds a Model, validating cfg.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, memo: memoFor(cfg)}, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// SaturationKnee is the utilization above which an outcome is labelled
// saturated.
const SaturationKnee = 0.85

// Allocate computes the equilibrium grants for the given co-scheduled
// thread set. A nil or empty request set returns no grants and an idle
// outcome. Requests with non-positive demand receive full speed.
func (m *Model) Allocate(reqs []Request) ([]Grant, Outcome) {
	return m.AllocateInto(nil, reqs)
}

// AllocateInto is Allocate with a caller-supplied grant buffer: dst's
// capacity is reused when possible, so a steady-state caller (the
// machine's micro-step loop) allocates nothing. The returned slice has
// exactly len(reqs) grants and aliases dst's backing array when it
// fits.
func (m *Model) AllocateInto(dst []Grant, reqs []Request) ([]Grant, Outcome) {
	out := Outcome{Stretch: 1}
	if len(reqs) == 0 {
		out.EffectiveCapacity = m.cfg.Capacity
		return nil, out
	}

	masters := 0
	var offered units.Rate
	for _, r := range reqs {
		if r.Demand > m.cfg.MasterThreshold {
			masters++
		}
		if r.Demand > 0 {
			offered += r.Demand
		}
	}
	ceff := m.effectiveCapacity(masters)
	out.Masters = masters
	out.EffectiveCapacity = ceff
	out.Offered = offered

	dmax := maxDemand(reqs)
	x, ok := m.memo.get(reqs)
	if !ok {
		x = m.solveStretch(reqs, ceff, dmax, offered)
		m.memo.put(reqs, x)
	}
	out.Stretch = x

	grants := dst[:0]
	var served units.Rate
	for _, r := range reqs {
		sp := m.speedAt(r, x, dmax)
		g := Grant{Speed: sp, Rate: units.Rate(math.Max(0, float64(r.Demand))) * units.Rate(sp)}
		grants = append(grants, g)
		served += g.Rate
	}
	out.Served = served
	if ceff > 0 {
		out.Utilization = float64(served / ceff)
	}
	out.Saturated = out.Utilization > SaturationKnee
	return grants, out
}

// effectiveCapacity applies the arbitration penalty for n masters.
func (m *Model) effectiveCapacity(masters int) units.Rate {
	if masters <= 1 {
		return m.cfg.Capacity
	}
	frac := 1 - m.cfg.ArbPenalty*float64(masters-1)
	if frac < m.cfg.MinCapacityFrac {
		frac = m.cfg.MinCapacityFrac
	}
	return m.cfg.Capacity * units.Rate(frac)
}

// maxDemand returns the largest positive demand among reqs.
func maxDemand(reqs []Request) units.Rate {
	var m units.Rate
	for _, r := range reqs {
		if r.Demand > m {
			m = r.Demand
		}
	}
	return m
}

// speedAt evaluates a thread's progress fraction at base stretch x,
// amplifying the stretch for threads lighter than the heaviest
// co-runner (arbitration unfairness).
func (m *Model) speedAt(r Request, x float64, dmax units.Rate) float64 {
	if r.Demand <= 0 {
		return 1
	}
	f, w := m.stallWeight(r, dmax)
	return speedFW(f, w, x)
}

// stallWeight returns a request's stall fraction clamped to [0,1] and
// its unfairness weight 1 + Unfairness*(1 - d/dmax): the parts of
// speedAt that do not depend on the stretch.
func (m *Model) stallWeight(r Request, dmax units.Rate) (f, w float64) {
	f = r.StallFrac
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	w = 1.0
	if dmax > 0 && m.cfg.Unfairness > 0 {
		w = 1 + m.cfg.Unfairness*(1-float64(r.Demand/dmax))
	}
	return f, w
}

// speedFW is the progress fraction at base stretch x of a thread with
// clamped stall fraction f and unfairness weight w.
func speedFW(f, w, x float64) float64 {
	xt := 1 + (x-1)*w
	return 1 / ((1 - f) + f*xt)
}

// solveTerm holds one positive-demand request's stretch-independent
// inputs to the served-rate sum.
type solveTerm struct {
	demand units.Rate
	f, w   float64
}

// delayCurve evaluates the open-loop latency inflation at utilization
// rho. It is clamped just below 1 to stay finite; the bisection then
// settles wherever the closed-loop equilibrium lies.
func (m *Model) delayCurve(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	const rhoCap = 0.999
	if rho > rhoCap {
		rho = rhoCap
	}
	return 1 + m.cfg.QueueFactor*math.Pow(rho, m.cfg.CurveExponent)/(1-rho)
}

// solveStretch finds the unique fixed point of
// X = delayCurve(served(X)/ceff) by bisection. F(X) = X - delay(...)
// is strictly increasing: served falls with X, delay rises with
// served, so -delay rises with X. Each request's clamped stall
// fraction and unfairness weight are computed once per solve, not once
// per bisection step; the served sum then runs the same operations on
// the same values, in the same order, as speedAt does.
func (m *Model) solveStretch(reqs []Request, ceff, dmax, offered units.Rate) float64 {
	if ceff <= 0 {
		return m.cfg.MaxStretch
	}
	// Early-out hoisted before the bracket: with no offered load (or a
	// flat delay curve) the delay at X=1 is exactly 1, so f(1) = 0 and
	// the bisection below would return 1 anyway — prove it without
	// scanning reqs or evaluating the curve.
	if offered <= 0 || m.cfg.QueueFactor == 0 {
		return 1
	}
	var buf [8]solveTerm
	terms := buf[:0]
	for _, r := range reqs {
		if r.Demand > 0 {
			f, w := m.stallWeight(r, dmax)
			terms = append(terms, solveTerm{demand: r.Demand, f: f, w: w})
		}
	}
	f := func(x float64) float64 {
		var served units.Rate
		for _, t := range terms {
			served += t.demand * units.Rate(speedFW(t.f, t.w, x))
		}
		return x - m.delayCurve(float64(served/ceff))
	}
	lo, hi := 1.0, m.cfg.MaxStretch
	if f(lo) >= 0 {
		return lo // no contention at all
	}
	if f(hi) <= 0 {
		return hi // pinned at the cap
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9*hi {
			break
		}
	}
	return (lo + hi) / 2
}
