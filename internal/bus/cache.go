package bus

import (
	"math"
	"sync"
	"sync/atomic"
)

// memoBits sizes each stretch memo at memoSlots = 4096 slots. Workload
// demands are piecewise-constant across phases, so a whole figure
// sweep presents about eleven thousand distinct request vectors; 4096
// direct-mapped slots keep the hot ones resident while bounding a
// table at 32 KiB of slot pointers plus one small entry per slot.
const (
	memoBits  = 12
	memoSlots = 1 << memoBits
)

// memoEntry is one solved equilibrium: a private copy of the exact
// request vector and the stretch the bisection found for it. It is
// immutable once published. The grants and the Outcome are not stored:
// AllocateInto recomputes them from (reqs, x) with the same code as
// after a solve, so a hit is bit-identical by construction.
type memoEntry struct {
	reqs []Request
	x    float64
}

// stretchMemo is a direct-mapped table of solved stretches, shared by
// every Model built from an equal Config. A slot is chosen by a hash of
// the raw IEEE-754 bits of every (Demand, StallFrac) pair, and a lookup
// confirms the hit by comparing the stored vector bit for bit. A
// colliding vector overwrites the slot: that costs a re-solve, never a
// wrong answer. Reads take no lock; each slot is an atomic pointer to
// an immutable entry.
type stretchMemo struct {
	slots [memoSlots]atomic.Pointer[memoEntry]
}

// memos maps each Config to its stretch memo, process-wide.
var memos sync.Map // Config -> *stretchMemo

// memoFor returns the shared memo for cfg. The plain Load comes first
// so that building a Model for an already-seen Config allocates no
// table. cfg must be valid: a NaN field would never equal itself, and
// every call would then get a fresh table.
func memoFor(cfg Config) *stretchMemo {
	if v, ok := memos.Load(cfg); ok {
		return v.(*stretchMemo)
	}
	v, _ := memos.LoadOrStore(cfg, new(stretchMemo))
	return v.(*stretchMemo)
}

// slot returns the slot reqs maps to.
func (t *stretchMemo) slot(reqs []Request) *atomic.Pointer[memoEntry] {
	return &t.slots[hashReqs(reqs)>>(64-memoBits)]
}

// get returns the memoized stretch for reqs, if its slot holds it. A
// nil memo holds nothing.
func (t *stretchMemo) get(reqs []Request) (float64, bool) {
	if t == nil {
		return 0, false
	}
	e := t.slot(reqs).Load()
	if e == nil || !SameRequests(e.reqs, reqs) {
		return 0, false
	}
	return e.x, true
}

// put publishes x as the stretch for a private copy of reqs,
// replacing whatever the slot held. On a nil memo it does nothing.
func (t *stretchMemo) put(reqs []Request, x float64) {
	if t == nil {
		return
	}
	t.slot(reqs).Store(&memoEntry{reqs: append([]Request(nil), reqs...), x: x})
}

// hashReqs mixes the exact float64 bit patterns of reqs, in order.
func hashReqs(reqs []Request) uint64 {
	h := uint64(len(reqs))
	for _, r := range reqs {
		h = mix64(h ^ math.Float64bits(float64(r.Demand)))
		h = mix64(h ^ math.Float64bits(r.StallFrac))
	}
	return h
}

func mix64(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>32
}

// SameRequests reports whether a and b hold bit-for-bit equal
// requests, in order: the equality under which Allocate's answer is
// guaranteed to repeat.
func SameRequests(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i].Demand)) != math.Float64bits(float64(b[i].Demand)) ||
			math.Float64bits(a[i].StallFrac) != math.Float64bits(b[i].StallFrac) {
			return false
		}
	}
	return true
}
