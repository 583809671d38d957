package gateway

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the breakers' and the retry budget's sense of time.
// Safe for concurrent use: gateway handlers read it while a test
// advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func testBreaker(threshold int, cd time.Duration) (*breaker, *fakeClock) {
	c := newFakeClock()
	return newBreaker(threshold, cd, c.now), c
}

// errFail is an ordinary attempt failure; errDial is a refused dial.
var (
	errFail = errors.New("attempt failed")
	errDial = &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
)

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		b.Record(errFail)
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures, threshold 3", i+1)
		}
	}
	b.Record(errFail)
	if b.State() != breakerOpen {
		t.Fatal("breaker not open after 3 consecutive failures")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}
	opened, _ := b.Transitions()
	if opened != 1 {
		t.Fatalf("opened transitions = %d, want 1", opened)
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	// Scattered failures with successes in between never trip the
	// consecutive-run condition.
	for i := 0; i < 10; i++ {
		b.Record(errFail)
		b.Record(errFail)
		b.Record(nil)
	}
	if b.State() != breakerClosed {
		t.Fatal("scattered failures tripped the breaker")
	}
}

func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.Record(errFail)
	if b.State() != breakerOpen {
		t.Fatal("threshold-1 breaker not open after one failure")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted before cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open trial refused")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	// Exactly one trial: concurrent callers wait for it to resolve.
	if b.Allow() {
		t.Fatal("second concurrent half-open trial admitted")
	}
	b.Record(nil)
	if b.State() != breakerClosed {
		t.Fatal("successful trial did not re-close")
	}
	_, reclosed := b.Transitions()
	if reclosed != 1 {
		t.Fatalf("reclosed transitions = %d, want 1", reclosed)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.Record(errFail)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("trial refused")
	}
	b.Record(errFail)
	if b.State() != breakerOpen {
		t.Fatal("failed trial did not reopen")
	}
	if b.Allow() {
		t.Fatal("admitted immediately after failed trial — cooldown must restart")
	}
	opened, _ := b.Transitions()
	if opened != 2 {
		t.Fatalf("opened transitions = %d, want 2", opened)
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	b, _ := testBreaker(100, time.Second) // run threshold out of reach
	// 3 failures per 4 outcomes: the run never reaches 100, but once
	// the 32-outcome window is full at a 75% error rate it trips.
	for i := 0; i < breakerWindow/4; i++ {
		b.Record(errFail)
		b.Record(errFail)
		b.Record(errFail)
		b.Record(nil)
	}
	// The window is full of 3/4 failures but ended on a success (run
	// reset); one more failure re-evaluates the rate.
	b.Record(errFail)
	if b.State() != breakerOpen {
		t.Fatal("75% windowed error rate did not trip the breaker")
	}
}

func TestBreakerRateNeedsFullWindow(t *testing.T) {
	b, _ := testBreaker(100, time.Second)
	// 100% failures but fewer than a full window: no rate trip (and the
	// run threshold is out of reach), so a cold backend with two bad
	// samples is not condemned.
	for i := 0; i < breakerWindow-1; i++ {
		b.Record(errFail)
	}
	if b.State() != breakerClosed {
		t.Fatal("breaker tripped on a partial window")
	}
}

// TestBreakerDialTripsAtOnce: a refused dial is hard evidence of a dead
// process — it opens a closed breaker without waiting for a run.
func TestBreakerDialTripsAtOnce(t *testing.T) {
	b, _ := testBreaker(5, time.Second)
	b.Record(errDial)
	if b.State() != breakerOpen || b.Allow() {
		t.Fatal("refused dial did not open the breaker at once")
	}
}

// TestBreakerTrialBackoff: each failed trial doubles the cooldown up to
// 16×, and a success resets it.
func TestBreakerTrialBackoff(t *testing.T) {
	const cd = time.Second
	b, clk := testBreaker(1, cd)
	b.Record(errFail)
	for _, mult := range []int{1, 2, 4, 8, 16, 16, 16} {
		clk.advance(time.Duration(mult)*cd - time.Millisecond)
		if b.Allow() {
			t.Fatalf("trial admitted before %d× cooldown", mult)
		}
		clk.advance(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("trial refused after %d× cooldown", mult)
		}
		b.Record(errDial)
	}
	clk.advance(16 * cd)
	if !b.Allow() {
		t.Fatal("trial refused after the capped cooldown")
	}
	b.Record(nil)
	b.Record(errFail)
	clk.advance(cd)
	if !b.Allow() {
		t.Fatal("success did not reset the backoff to one cooldown")
	}
}

// TestBreakerAbandonedTrialExpires: a claimed trial whose outcome never
// arrives (its requester went away) does not wedge the breaker — the
// next trial is granted one cooldown after the claim.
func TestBreakerAbandonedTrialExpires(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.Record(errFail)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("first trial refused")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("second trial admitted while the first is pending")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("abandoned trial wedged the breaker half-open")
	}
}
