package stats

// Window is a fixed-capacity moving window over float64 samples with an
// O(1) running average. It is the data structure behind the paper's
// "Quanta Window" policy: the scheduler keeps the last W bus-transaction
// samples per application and averages them to smooth out bursts.
//
// A Window with capacity 1 degenerates to "latest sample", which is
// exactly the "Latest Quantum" policy; the schedulers exploit that to
// share one implementation.
//
// The zero value is not usable; create Windows with NewWindow.
type Window struct {
	buf  []float64
	head int // index of the slot the next Push writes
	n    int // number of valid samples, n <= len(buf)
	sum  float64
	mean float64 // memoized Mean, maintained by Push and Reset
}

// NewWindow returns a Window holding at most capacity samples.
// NewWindow panics if capacity < 1: a window that can hold no samples
// has no meaningful average.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("stats: window capacity must be >= 1")
	}
	return &Window{buf: make([]float64, capacity)}
}

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Len returns the number of samples currently held (<= Cap).
func (w *Window) Len() int { return w.n }

// Push appends a sample, evicting the oldest if the window is full.
// The mean is memoized here, so the samples change only at Push (and
// Reset) while Mean itself stays O(1) — the scheduler's selection loop
// probes Mean many times per quantum between pushes.
func (w *Window) Push(x float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.head]
	} else {
		w.n++
	}
	w.buf[w.head] = x
	w.sum += x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
	w.mean = w.computeMean()
}

// Mean returns the average of the samples currently held, or 0 if the
// window is empty. The value is the exact summation computed at the
// last Push (see computeMean), returned in O(1).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.mean
}

// computeMean evaluates the documented exact-summation semantics: to
// bound floating-point drift from the incremental sum it recomputes
// exactly when the window is small; for the window lengths used by
// the scheduler (<= a few dozen) this is the common case and keeps
// results reproducible.
func (w *Window) computeMean() float64 {
	if w.n == 0 {
		return 0
	}
	if w.n <= 64 {
		var s float64
		for i := 0; i < w.n; i++ {
			s += w.at(i)
		}
		return s / float64(w.n)
	}
	return w.sum / float64(w.n)
}

// Latest returns the most recently pushed sample, or 0 if empty.
func (w *Window) Latest() float64 {
	if w.n == 0 {
		return 0
	}
	i := w.head - 1
	if i < 0 {
		i = len(w.buf) - 1
	}
	return w.buf[i]
}

// at returns the i-th oldest valid sample (0 = oldest).
func (w *Window) at(i int) float64 {
	start := w.head - w.n
	if start < 0 {
		start += len(w.buf)
	}
	j := start + i
	if j >= len(w.buf) {
		j -= len(w.buf)
	}
	return w.buf[j]
}

// Samples returns the held samples oldest-first in a fresh slice.
// Hot paths should prefer AppendSamples.
func (w *Window) Samples() []float64 {
	return w.AppendSamples(make([]float64, 0, w.n))
}

// AppendSamples appends the held samples oldest-first to dst and
// returns the extended slice, reusing dst's capacity — the
// non-allocating variant of Samples.
func (w *Window) AppendSamples(dst []float64) []float64 {
	for i := 0; i < w.n; i++ {
		dst = append(dst, w.at(i))
	}
	return dst
}

// Reset discards all samples.
func (w *Window) Reset() {
	w.n = 0
	w.head = 0
	w.sum = 0
	w.mean = 0
	for i := range w.buf {
		w.buf[i] = 0
	}
}

// EWMA is an exponentially weighted moving average, the paper's
// suggested refinement for windows too long for a flat average
// ("exponential reduction of the weight of older samples").
// The zero value with Alpha set is ready to use.
type EWMA struct {
	// Alpha is the weight of each new sample, in (0, 1].
	Alpha float64

	value float64
	init  bool
}

// Push folds a new sample into the average.
func (e *EWMA) Push(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
}

// Value returns the current average, or 0 before any sample.
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been pushed.
func (e *EWMA) Initialized() bool { return e.init }

// Reset discards state.
func (e *EWMA) Reset() { e.value, e.init = 0, false }
