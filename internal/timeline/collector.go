package timeline

import (
	"fmt"
	"sync"
)

// Defaults for Config's zero values.
const (
	// DefaultQuantaPerWindow trades resolution for volume: at the
	// paper's 200ms quantum one window covers 12.8 simulated seconds,
	// and a 30-minute run seals ~140 windows.
	DefaultQuantaPerWindow = 64
	// DefaultCapacity bounds the ring: 1024 windows is ~65k quanta of
	// full detail, with older history folded into the running summary.
	DefaultCapacity = 1024
	// DefaultSaturationThreshold marks a quantum saturated when the
	// bus model served at least this fraction of effective capacity.
	DefaultSaturationThreshold = 0.9
)

// Config sizes a Collector. The zero value selects every default.
type Config struct {
	// QuantaPerWindow is how many quanta one window aggregates
	// (0 = DefaultQuantaPerWindow).
	QuantaPerWindow int
	// Capacity is the ring size in sealed windows
	// (0 = DefaultCapacity). Oldest windows are evicted into the
	// running summary when the ring is full.
	Capacity int
	// SaturationThreshold is the utilization at or above which a
	// quantum counts as saturated (0 = DefaultSaturationThreshold).
	SaturationThreshold float64
	// OnSeal, when non-nil, is called with every sealed window —
	// including the final partial window flushed by Seal — outside the
	// collector lock. The serving layer uses it to publish windows to
	// live /v1/timeline subscribers while the run is still in flight.
	OnSeal func(Window)
}

// Collector aggregates per-quantum samples into windows with bounded
// memory. The zero value is not usable; construct with New. All
// methods are safe for concurrent use: one writer (the simulation
// loop) and any number of snapshot readers (the streaming endpoint).
type Collector struct {
	mu  sync.Mutex
	cfg Config

	cur  Window // accumulating window (Quanta < cfg.QuantaPerWindow)
	open bool   // cur has at least one quantum

	ring    []Window // preallocated to Capacity
	head    int      // index of the oldest retained window
	n       int      // retained windows
	sealed  int64    // windows sealed over the collector's lifetime
	evicted Window   // merged total of windows pushed out of the ring
	total   Window   // merged total of every sealed window
}

// New builds a collector, applying defaults and validating cfg.
func New(cfg Config) (*Collector, error) {
	if cfg.QuantaPerWindow == 0 {
		cfg.QuantaPerWindow = DefaultQuantaPerWindow
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SaturationThreshold == 0 {
		cfg.SaturationThreshold = DefaultSaturationThreshold
	}
	if cfg.QuantaPerWindow < 1 {
		return nil, fmt.Errorf("timeline: quanta per window %d", cfg.QuantaPerWindow)
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("timeline: capacity %d", cfg.Capacity)
	}
	if cfg.SaturationThreshold < 0 || cfg.SaturationThreshold > 1 {
		return nil, fmt.Errorf("timeline: saturation threshold %v out of [0,1]", cfg.SaturationThreshold)
	}
	return &Collector{cfg: cfg, ring: make([]Window, cfg.Capacity)}, nil
}

// MustNew is New for configurations known valid (defaults included);
// it panics on error.
func MustNew(cfg Config) *Collector {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// RecordQuantum folds one quantum into the current window, sealing it
// into the ring when it reaches QuantaPerWindow quanta. This is the
// simulator's hot path: it allocates nothing (the ring slot is
// preallocated and OnSeal delivery copies a value).
func (c *Collector) RecordQuantum(s Sample) {
	c.mu.Lock()
	sealed, fire := c.foldLocked(s)
	c.mu.Unlock()

	if fire && c.cfg.OnSeal != nil {
		c.cfg.OnSeal(sealed)
	}
}

// foldLocked accumulates one quantum into the current window and seals
// it when full, returning the sealed window. Callers hold c.mu.
func (c *Collector) foldLocked(s Sample) (Window, bool) {
	if !c.open {
		c.cur = Window{Seq: c.sealed, StartUsec: s.StartUsec, EndUsec: s.StartUsec}
		c.open = true
	}
	w := &c.cur
	if s.StartUsec < w.StartUsec {
		w.StartUsec = s.StartUsec
	}
	if end := s.StartUsec + s.DurUsec; end > w.EndUsec {
		w.EndUsec = end
	}
	w.Quanta++
	w.UtilSum += s.Utilization
	if s.Utilization > w.UtilMax {
		w.UtilMax = s.Utilization
	}
	w.ServedSum += s.Served
	w.StretchSum += s.Stretch
	if s.Stretch > w.StretchMax {
		w.StretchMax = s.Stretch
	}
	w.Placed += int64(s.Placed)
	w.Runnable += int64(s.Runnable)
	w.Admitted += int64(s.Admitted)
	if d := s.Runnable - s.Admitted; d > 0 {
		w.Deferred += int64(d)
	}
	if s.Utilization >= c.cfg.SaturationThreshold {
		w.Saturated++
	}
	if s.Placed == 0 {
		w.Idle++
	}
	w.Faults += s.Faults
	if w.Quanta >= int64(c.cfg.QuantaPerWindow) {
		return c.sealLocked()
	}
	return Window{}, false
}

// sealLocked moves the current window into the ring, evicting the
// oldest into the running summary when full. Callers hold c.mu.
func (c *Collector) sealLocked() (Window, bool) {
	if !c.open {
		return Window{}, false
	}
	w := c.cur
	c.open = false
	c.cur = Window{}
	if c.n == len(c.ring) {
		c.evicted = Merge(c.evicted, c.ring[c.head])
		c.head = (c.head + 1) % len(c.ring)
		c.n--
	}
	c.ring[(c.head+c.n)%len(c.ring)] = w
	c.n++
	c.sealed++
	c.total = Merge(c.total, w)
	return w, true
}

// Seal flushes the in-progress partial window, if any, so runs shorter
// than one window still produce output. sim.Run calls it once at the
// end of the run.
func (c *Collector) Seal() {
	c.mu.Lock()
	sealed, fire := c.sealLocked()
	c.mu.Unlock()
	if fire && c.cfg.OnSeal != nil {
		c.cfg.OnSeal(sealed)
	}
}

// Windows returns a copy of the retained windows, oldest first.
func (c *Collector) Windows() []Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Window, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.ring[(c.head+i)%len(c.ring)]
	}
	return out
}

// Since returns retained windows with Seq >= seq, oldest first — the
// streaming endpoint's incremental read.
func (c *Collector) Since(seq int64) []Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Window
	for i := 0; i < c.n; i++ {
		if w := c.ring[(c.head+i)%len(c.ring)]; w.Seq >= seq {
			out = append(out, w)
		}
	}
	return out
}

// Summary returns the merge of every window ever sealed — retained or
// evicted — so run-level totals survive ring wraparound. The partial
// in-progress window is not included until sealed.
func (c *Collector) Summary() Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Sealed returns how many windows have been sealed over the
// collector's lifetime; Evicted how many of those have been pushed out
// of the ring.
func (c *Collector) Sealed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealed
}

// Evicted reports the number of sealed windows no longer retained.
func (c *Collector) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealed - int64(c.n)
}

// SaturationThreshold reports the threshold the collector classifies
// saturated quanta with (after defaulting).
func (c *Collector) SaturationThreshold() float64 { return c.cfg.SaturationThreshold }

// QuantaPerWindow reports the window span in quanta (after defaulting).
func (c *Collector) QuantaPerWindow() int { return c.cfg.QuantaPerWindow }
