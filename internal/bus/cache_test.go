package bus

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"busaware/internal/units"
)

func randReqs(rng *rand.Rand) []Request {
	n := rng.Intn(8) + 1
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Demand:    units.Rate(rng.Float64() * 30),
			StallFrac: rng.Float64(),
		}
	}
	return reqs
}

var freshConfigs atomic.Int64

// freshConfig returns a valid Config no earlier call returned, so its
// table starts empty even when the tests run more than once in one
// process.
func freshConfig() Config {
	c := DefaultConfig()
	c.MaxStretch += float64(freshConfigs.Add(1))
	return c
}

// direct returns a Model without a memo: every call solves afresh, so
// it is the reference a memoized answer must match bit for bit.
func direct(cfg Config) *Model { return &Model{cfg: cfg} }

// checkSame fails unless the memoized and direct answers for reqs are
// bitwise equal.
func checkSame(t *testing.T, what string, memo, ref *Model, reqs []Request) {
	t.Helper()
	wantG, wantO := ref.Allocate(reqs)
	gotG, gotO := memo.Allocate(reqs)
	if gotO != wantO {
		t.Fatalf("%s: outcome diverged:\ngot  %+v\nwant %+v", what, gotO, wantO)
	}
	if len(gotG) != len(wantG) {
		t.Fatalf("%s: %d grants, want %d", what, len(gotG), len(wantG))
	}
	for i := range wantG {
		if gotG[i] != wantG[i] {
			t.Fatalf("%s: grant %d diverged: got %+v want %+v", what, i, gotG[i], wantG[i])
		}
	}
}

// Property: the memoized Allocate is bit-identical to a direct solve
// for every request vector, on the miss path (first call) and on the
// hit path (replay), across random vectors that overflow the table
// four times over.
func TestCacheBitIdenticalToUncached(t *testing.T) {
	cfg := freshConfig()
	memo, ref := mustModel(t, cfg), direct(cfg)
	rng := rand.New(rand.NewSource(42))

	vectors := make([][]Request, 4*memoSlots)
	for i := range vectors {
		vectors[i] = randReqs(rng)
		checkSame(t, "populate", memo, ref, vectors[i])
	}
	// Each slot now holds the last vector that mapped to it. The replay
	// hits those and re-solves the rest, which overwrites slots again.
	resident := 0
	for _, reqs := range vectors {
		if _, ok := memo.memo.get(reqs); ok {
			resident++
		}
	}
	if resident < memoSlots/2 || resident > memoSlots {
		t.Errorf("%d resident vectors after the populate pass, want %d..%d", resident, memoSlots/2, memoSlots)
	}
	for _, reqs := range vectors {
		checkSame(t, "replay", memo, ref, reqs)
	}
}

// A hit must replay the identical answer when the vector arrives in a
// different backing slice, and churn through the direct-mapped slots —
// which may overwrite the hot vector's slot — never changes an answer.
func TestCacheHitSurvivesChurn(t *testing.T) {
	cfg := DefaultConfig()
	memo, ref := mustModel(t, cfg), direct(cfg)
	hot := []Request{{Demand: 12, StallFrac: 0.8}, {Demand: 3, StallFrac: 0.4}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < memoSlots; i++ {
		memo.Allocate(randReqs(rng)) // churn
		checkSame(t, "hot", memo, ref, append([]Request(nil), hot...))
		if _, ok := memo.memo.get(hot); !ok {
			t.Fatalf("churn round %d: the hot vector is not resident right after its own call", i)
		}
	}
}

// collidingPair returns two different vectors that map to the same
// slot.
func collidingPair(t *testing.T) (a, b []Request) {
	t.Helper()
	var m stretchMemo
	rng := rand.New(rand.NewSource(3))
	seen := make(map[*atomic.Pointer[memoEntry]][]Request)
	for i := 0; i < 1<<16; i++ {
		reqs := randReqs(rng)
		slot := m.slot(reqs)
		if prev, ok := seen[slot]; ok && !SameRequests(prev, reqs) {
			return prev, reqs
		}
		seen[slot] = reqs
	}
	t.Fatal("no slot collision among 65536 random vectors")
	return nil, nil
}

// Two vectors that share a slot evict each other on every call when
// alternated: each call re-solves, and each answer stays exact.
func TestCacheCollisionAlternatingExact(t *testing.T) {
	cfg := DefaultConfig()
	memo, ref := mustModel(t, cfg), direct(cfg)
	a, b := collidingPair(t)
	if memo.memo.slot(a) != memo.memo.slot(b) {
		t.Fatal("collidingPair returned vectors in different slots")
	}
	for i := 0; i < 50; i++ {
		cur, other := a, b
		if i%2 == 1 {
			cur, other = b, a
		}
		checkSame(t, "alternate", memo, ref, cur)
		if _, ok := memo.memo.get(cur); !ok {
			t.Fatalf("round %d: the last vector solved does not hold its slot", i)
		}
		if _, ok := memo.memo.get(other); ok {
			t.Fatalf("round %d: the evicted vector still hits", i)
		}
	}
}

// Four goroutines with their own Models of one Config share one table;
// run under -race this checks the lock-free slots, and every answer
// must still equal the direct solve.
func TestCacheSharedAcrossGoroutines(t *testing.T) {
	cfg := freshConfig()
	ref := direct(cfg)
	rng := rand.New(rand.NewSource(11))
	vectors := make([][]Request, 64)
	for i := range vectors {
		vectors[i] = randReqs(rng)
	}

	const workers = 4
	models := make([]*Model, workers)
	for w := range models {
		models[w] = mustModel(t, cfg)
		if models[w].memo != models[0].memo {
			t.Fatal("Models of one Config got different tables")
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(m *Model, seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var grants []Grant
			for i := 0; i < 2000; i++ {
				v := vectors[r.Intn(len(vectors))]
				var out Outcome
				grants, out = m.AllocateInto(grants, v)
				wantG, wantO := ref.Allocate(v)
				if out != wantO {
					errs <- "outcome diverged"
					return
				}
				for k := range wantG {
					if grants[k] != wantG[k] {
						errs <- "grant diverged"
						return
					}
				}
			}
		}(models[w], int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Each Config has a table of its own: entries solved under one Config
// are never answers under another, while an equal Config built
// separately shares the table.
func TestCachePerConfig(t *testing.T) {
	a := freshConfig()
	b := a
	b.QueueFactor = 0.07
	ma, mb := mustModel(t, a), mustModel(t, b)
	if ma.memo == mb.memo {
		t.Fatal("different Configs share a table")
	}
	aCopy := a
	if mustModel(t, aCopy).memo != ma.memo {
		t.Fatal("an equal Config got a table of its own")
	}

	rng := rand.New(rand.NewSource(5))
	differ := 0
	for i := 0; i < 200; i++ {
		reqs := randReqs(rng)
		_, oa := ma.Allocate(reqs) // populate a's table
		if _, ok := mb.memo.get(reqs); ok {
			t.Fatalf("vector %d: b's table holds an entry only a solved", i)
		}
		checkSame(t, "second config", mb, direct(b), reqs)
		if _, ob := mb.Allocate(reqs); ob.Stretch != oa.Stretch {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two Configs never disagreed; the test cannot tell their tables apart")
	}
}

// AllocateInto must not allocate on the hit path, and a Model for an
// already-seen Config allocates only itself, never a table.
func TestAllocateIntoHitPathZeroAllocs(t *testing.T) {
	m := mustModel(t, DefaultConfig())
	reqs := []Request{{Demand: 10, StallFrac: 0.9}, {Demand: 2, StallFrac: 0.3}}
	grants, _ := m.AllocateInto(nil, reqs) // prime
	avg := testing.AllocsPerRun(100, func() {
		grants, _ = m.AllocateInto(grants, reqs)
	})
	if avg != 0 {
		t.Errorf("hit path allocates %v times per call, want 0", avg)
	}
	cfg := DefaultConfig()
	if avg := testing.AllocsPerRun(100, func() { _, _ = New(cfg) }); avg > 1 {
		t.Errorf("New for a seen Config allocates %v times, want 1 (the Model)", avg)
	}
}
