package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Cap() != 3 || w.Len() != 0 {
		t.Fatalf("new window cap/len = %d/%d", w.Cap(), w.Len())
	}
	if w.Mean() != 0 || w.Latest() != 0 {
		t.Error("empty window should report zero mean and latest")
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 || !almostEqual(w.Mean(), 1.5, 1e-12) || w.Latest() != 2 {
		t.Errorf("after two pushes: len=%d mean=%v latest=%v", w.Len(), w.Mean(), w.Latest())
	}
	w.Push(3)
	w.Push(4) // evicts 1
	if w.Len() != 3 || !almostEqual(w.Mean(), 3, 1e-12) || w.Latest() != 4 {
		t.Errorf("after eviction: len=%d mean=%v latest=%v", w.Len(), w.Mean(), w.Latest())
	}
	got := w.Samples()
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Samples() = %v, want %v", got, want)
			break
		}
	}
}

func TestWindowCapacityOnePolicyEquivalence(t *testing.T) {
	// A window of capacity 1 must behave as "latest quantum": mean ==
	// latest sample at all times. The scheduler relies on this to share
	// one policy implementation.
	w := NewWindow(1)
	for i, x := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		w.Push(x)
		if w.Mean() != x || w.Latest() != x {
			t.Fatalf("push %d: mean=%v latest=%v want both %v", i, w.Mean(), w.Latest(), x)
		}
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 10; i++ {
		w.Push(float64(i))
	}
	w.Reset()
	if w.Len() != 0 || w.Mean() != 0 {
		t.Errorf("after reset: len=%d mean=%v", w.Len(), w.Mean())
	}
	w.Push(7)
	if w.Mean() != 7 || w.Len() != 1 {
		t.Errorf("push after reset: len=%d mean=%v", w.Len(), w.Mean())
	}
}

func TestWindowPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) should panic")
		}
	}()
	NewWindow(0)
}

// Property: window mean equals the exact mean of the last min(n, cap)
// pushed values, for random push sequences.
func TestWindowMeanMatchesNaive(t *testing.T) {
	f := func(capSeed uint8, raw []float64) bool {
		capacity := int(capSeed%16) + 1
		w := NewWindow(capacity)
		var hist []float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			w.Push(x)
			hist = append(hist, x)
			lo := len(hist) - capacity
			if lo < 0 {
				lo = 0
			}
			want := Mean(hist[lo:])
			if !almostEqual(w.Mean(), want, 1e-6*(1+math.Abs(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The paper picked W=5 because it limits the average distance between an
// irregular transaction pattern and its moving average. Sanity-check the
// smoothing direction: a longer window never increases responsiveness to
// a step change (its post-step mean is never closer to the new level than
// a shorter window's).
func TestWindowSmoothingMonotonic(t *testing.T) {
	step := make([]float64, 20)
	for i := range step {
		if i >= 10 {
			step[i] = 10
		}
	}
	lags := make([]float64, 0, 3)
	for _, cap := range []int{1, 5, 10} {
		w := NewWindow(cap)
		for _, x := range step {
			w.Push(x)
		}
		lags = append(lags, 10-w.Mean()) // distance from new level
	}
	if !(lags[0] <= lags[1] && lags[1] <= lags[2]) {
		t.Errorf("smoothing lag not monotonic in window length: %v", lags)
	}
}

func TestEWMA(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	if e.Initialized() {
		t.Error("zero EWMA should be uninitialized")
	}
	e.Push(10)
	if e.Value() != 10 {
		t.Errorf("first sample should seed value, got %v", e.Value())
	}
	e.Push(0)
	if !almostEqual(e.Value(), 5, 1e-12) {
		t.Errorf("EWMA after 10,0 with alpha .5 = %v, want 5", e.Value())
	}
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Error("reset did not clear EWMA")
	}
}

// Property: EWMA output is always within the range of inputs seen so far.
func TestEWMABoundedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		e := &EWMA{Alpha: rng.Float64()*0.99 + 0.01}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			x := rng.NormFloat64() * 100
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			e.Push(x)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				t.Fatalf("EWMA %v escaped input range [%v,%v]", e.Value(), lo, hi)
			}
		}
	}
}

// The memoized Mean must be bit-identical to the unmemoized exact
// computation under arbitrary Push/Mean interleavings, in both
// regimes: the small-window exact resummation (n <= 64) and the large
// -window incremental sum. Reset must invalidate the memo.
func TestWindowMeanMemoBitIdentical(t *testing.T) {
	// unmemoized replicates the documented semantics from first
	// principles: oldest-first resummation for small windows, the
	// incremental sum (tracked by an independent shadow) otherwise.
	type shadow struct {
		hist []float64
		sum  float64
	}
	unmemoized := func(s *shadow, capacity int) float64 {
		n := len(s.hist)
		if n > capacity {
			n = capacity
		}
		if n == 0 {
			return 0
		}
		if n <= 64 {
			var sum float64
			for _, x := range s.hist[len(s.hist)-n:] {
				sum += x
			}
			return sum / float64(n)
		}
		return s.sum / float64(n)
	}
	push := func(s *shadow, capacity int, x float64) {
		if len(s.hist) >= capacity {
			s.sum -= s.hist[len(s.hist)-capacity]
		}
		s.sum += x
		s.hist = append(s.hist, x)
	}

	rng := rand.New(rand.NewSource(99))
	for _, capacity := range []int{1, 5, 64, 100} {
		w := NewWindow(capacity)
		sh := &shadow{}
		for i := 0; i < 3*capacity+10; i++ {
			x := rng.NormFloat64() * 1e3
			w.Push(x)
			push(sh, capacity, x)
			// Two probes per push: Mean must be pure and stable
			// between pushes.
			want := unmemoized(sh, capacity)
			if got := w.Mean(); got != want {
				t.Fatalf("cap %d push %d: Mean() = %x, unmemoized = %x", capacity, i, got, want)
			}
			if got := w.Mean(); got != want {
				t.Fatalf("cap %d push %d: second Mean() probe diverged", capacity, i)
			}
		}
		w.Reset()
		if w.Mean() != 0 {
			t.Fatalf("cap %d: Mean after Reset = %v, want 0", capacity, w.Mean())
		}
		w.Push(42)
		if w.Mean() != 42 {
			t.Fatalf("cap %d: Mean after Reset+Push = %v, want 42", capacity, w.Mean())
		}
	}
}

// Mean between pushes must be O(1) and allocation-free — the scheduler
// probes it many times per quantum.
func TestWindowMeanZeroAllocs(t *testing.T) {
	w := NewWindow(5)
	for i := 0; i < 7; i++ {
		w.Push(float64(i))
	}
	var sink float64
	if avg := testing.AllocsPerRun(100, func() { sink = w.Mean() }); avg != 0 {
		t.Errorf("Mean allocates %v times per call, want 0", avg)
	}
	_ = sink
}
