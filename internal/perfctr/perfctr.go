// Package perfctr virtualizes the hardware performance-monitoring
// counters the paper's CPU manager reads through Mikael Pettersson's
// Linux perfctr driver.
//
// The simulator increments each thread's counters as it models
// execution; the scheduling layer reads them exactly the way the
// user-level CPU manager did on real hardware — by polling per-thread
// virtual counters twice per scheduling quantum, accumulating the
// per-thread values into per-application totals, and deriving
// transaction *rates* from successive samples.
//
// Hardware realism kept on purpose: counters are W bits wide (40 on
// the Pentium 4 family) and wrap; Monitor corrects a single wrap
// between polls, as the real run-time library had to.
package perfctr

import (
	"fmt"
	"sync/atomic"

	"busaware/internal/units"
)

// Event identifies one hardware event.
type Event int

// The events used by the reproduction. EventBusTransAny mirrors the
// Pentium 4 IOQ/FSB "bus transactions, any" event the paper sampled.
const (
	EventCycles Event = iota
	EventBusTransAny
	EventL2Refs
	EventL2Misses
	numEvents
)

// NumEvents is the number of defined events.
const NumEvents = int(numEvents)

func (e Event) String() string {
	switch e {
	case EventCycles:
		return "CYCLES"
	case EventBusTransAny:
		return "BUS_TRAN_ANY"
	case EventL2Refs:
		return "L2_REFS"
	case EventL2Misses:
		return "L2_MISSES"
	default:
		return fmt.Sprintf("EVENT(%d)", int(e))
	}
}

// CounterBits is the hardware counter width; Pentium 4 PMCs are 40 bits.
const CounterBits = 40

// counterMask keeps values within the hardware width.
const counterMask = (uint64(1) << CounterBits) - 1

// Counters is one thread's virtual counter file. It is safe for
// concurrent use without a lock: each event is one atomic.Uint64 that
// Add increments without masking, and readers apply the hardware mask.
// Because 2^CounterBits divides 2^64, the masked value of the unmasked
// modular sum equals the value a CounterBits-wide counter would hold,
// so totals are exact under any interleaving of concurrent Adds.
type Counters struct {
	values [numEvents]atomic.Uint64
}

// Add increments event ev by n; the counter wraps at the hardware width
// when read.
func (c *Counters) Add(ev Event, n uint64) {
	if ev < 0 || ev >= numEvents {
		return
	}
	c.values[ev].Add(n)
}

// AddAll increments every event by its entry in d, skipping zero
// entries. It is the flush half of a batched update: accumulate a
// stretch of increments in a plain [NumEvents]uint64, then add it here
// once — exact, because modular addition is associative.
func (c *Counters) AddAll(d [NumEvents]uint64) {
	for i, n := range d {
		if n != 0 {
			c.values[i].Add(n)
		}
	}
}

// Read returns the current value of event ev, read atomically and
// masked to the hardware width.
func (c *Counters) Read(ev Event) uint64 {
	if ev < 0 || ev >= numEvents {
		return 0
	}
	return c.values[ev].Load() & counterMask
}

// Snapshot returns every counter masked to the hardware width. Each
// event is read atomically, but the events are read one after another:
// under concurrent Adds the result is not a consistent cut across
// events.
func (c *Counters) Snapshot() [NumEvents]uint64 {
	var v [NumEvents]uint64
	for i := range v {
		v[i] = c.values[i].Load() & counterMask
	}
	return v
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	for i := range c.values {
		c.values[i].Store(0)
	}
}

// Sample is a point-in-time reading of one counter set.
type Sample struct {
	At     units.Time
	Values [NumEvents]uint64
}

// Delta returns the event-wise difference later - earlier, correcting
// one hardware wrap per event.
func Delta(earlier, later Sample) [NumEvents]uint64 {
	var d [NumEvents]uint64
	for i := range d {
		a, b := earlier.Values[i], later.Values[i]
		if b >= a {
			d[i] = b - a
		} else {
			d[i] = (counterMask - a) + b + 1
		}
	}
	return d
}

// FaultHook lets a fault-injection layer perturb counter sampling.
// DropCounterSample fails one poll outright (the driver read was
// lost); PerturbCounterRate adds measurement noise to each derived
// event rate. internal/faults.Injector implements it; a nil hook (or
// a hook that never fires) leaves the monitor's behaviour unchanged.
type FaultHook interface {
	DropCounterSample() bool
	PerturbCounterRate(float64) float64
}

// Monitor derives rates from successive polls of one Counters set,
// the way the CPU manager's run-time library sampled each thread.
type Monitor struct {
	ctr  *Counters
	last Sample
	init bool
	hook FaultHook
}

// NewMonitor starts monitoring ctr.
func NewMonitor(ctr *Counters) *Monitor {
	return &Monitor{ctr: ctr}
}

// SetFaultHook attaches a fault-injection hook to subsequent polls.
// Pass nil to detach.
func (m *Monitor) SetFaultHook(h FaultHook) { m.hook = h }

// Poll reads the counters at simulated time now and returns per-event
// rates (events per usec) since the previous poll. The first poll
// establishes the baseline and returns zero rates with ok == false.
// A poll with no elapsed time also returns ok == false.
//
// A poll dropped by the fault hook also returns ok == false and keeps
// the previous baseline, so the reading goes stale rather than lost:
// the next successful poll spans the gap and averages the rates over
// the whole elapsed interval, exactly as a missed perfctr read would
// on real hardware.
func (m *Monitor) Poll(now units.Time) (rates [NumEvents]float64, ok bool) {
	if m.hook != nil && m.hook.DropCounterSample() {
		return rates, false
	}
	s := Sample{At: now, Values: m.ctr.Snapshot()}
	if !m.init {
		m.last = s
		m.init = true
		return rates, false
	}
	elapsed := now - m.last.At
	if elapsed <= 0 {
		return rates, false
	}
	d := Delta(m.last, s)
	for i := range d {
		rates[i] = float64(d[i]) / float64(elapsed)
		if m.hook != nil {
			rates[i] = m.hook.PerturbCounterRate(rates[i])
		}
	}
	m.last = s
	return rates, true
}

// BusRate is a convenience accessor for the rate array.
func BusRate(rates [NumEvents]float64) units.Rate {
	return units.Rate(rates[EventBusTransAny])
}
