package gateway

import (
	"errors"
	"net"
	"sync"
	"time"
)

// Circuit breaker: the one per-backend health state machine. Every
// backend attempt — a proxied /v1/simulate, a sweep sub-dispatch, a
// /healthz probe — is admitted through Allow and recorded through
// Record, and every health reader (routing, /healthz, /metrics, the
// admin listing, the timeline fan-out) derives "healthy" from it as
// "closed".
//
// Ejection on a single transient error flaps routing on every blip
// and destroys cache affinity under a hostile network (chaos-injected
// resets, spurious 5xx), so the breaker tolerates scattered failures
// and opens only on a *pattern* — a consecutive-failure run or a high
// error rate over the recent window. The exception is hard evidence
// of a dead process: a dial error (nothing is listening) opens it at
// once.
//
// States: closed (normal) → open (attempts refused for the cooldown)
// → half-open (one trial attempt, claimed by Allow) → closed on
// success, open again on failure. Each failed trial doubles the
// cooldown, up to maxBackoff×, so a long-dead backend costs one trial
// per 16 cooldowns rather than one per cooldown; a success resets it.

const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// breakerWindow is the recent-outcome ring used for the error-rate
// trip: the breaker opens when at least breakerRateNum/breakerRateDen
// of the last breakerWindow outcomes were failures (only once the ring
// is full, so a cold backend is not condemned on two samples).
const (
	breakerWindow  = 32
	breakerRateNum = 3
	breakerRateDen = 4
)

// maxBackoff caps the failed-trial cooldown multiplier.
const maxBackoff = 16

type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // open → half-open trial delay, before backoff
	now       func() time.Time

	state    int
	failures int // consecutive
	// since is when the circuit opened or the current half-open trial
	// was claimed; the next trial is due backoff × cooldown later. A
	// trial whose outcome never arrives (its requester went away)
	// therefore expires instead of wedging the breaker half-open.
	since   time.Time
	backoff int

	// recent outcomes ring for the error-rate trip
	ring      [breakerWindow]bool // true = failure
	ringN     int
	ringIdx   int
	ringFails int

	// transition counters for /metrics
	opened   uint64
	reclosed uint64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now, backoff: 1}
}

// Allow claims permission for one attempt. A closed breaker admits
// everything; an open one whose (backed-off) cooldown has elapsed
// moves to half-open and grants the caller the single trial, refusing
// everyone else until the trial resolves or another cooldown passes.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		return true
	}
	now := b.now()
	if now.Sub(b.since) < time.Duration(b.backoff)*b.cooldown {
		return false
	}
	b.state = breakerHalfOpen
	b.since = now
	return true
}

// Record is the one outcome function: nil is a success, a dial error
// a dial failure, anything else a failure. A success closes the
// circuit from any state and resets the backoff. A dial failure opens
// it at once. A failure re-opens a half-open circuit and opens a
// closed one on a consecutive run of threshold failures or on the
// windowed error rate. A failed half-open trial doubles the backoff.
func (b *breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if b.state != breakerClosed {
			b.reclosed++
		}
		b.state = breakerClosed
		b.failures = 0
		b.backoff = 1
		b.push(false)
		return
	}
	b.failures++
	b.push(true)
	if b.state == breakerHalfOpen && b.backoff < maxBackoff {
		b.backoff *= 2
	}
	switch {
	case isDialError(err), b.state == breakerHalfOpen:
		b.trip()
	case b.state == breakerClosed:
		if b.failures >= b.threshold ||
			b.ringN == breakerWindow && b.ringFails*breakerRateDen >= breakerWindow*breakerRateNum {
			b.trip()
		}
	}
}

// isDialError reports whether err is a failure to even open a
// connection — the hard evidence of a dead process that opens the
// breaker at once, as opposed to mid-stream failures that must form a
// pattern first.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// trip opens the circuit (caller holds the lock).
func (b *breaker) trip() {
	if b.state != breakerOpen {
		b.opened++
	}
	b.state = breakerOpen
	b.since = b.now()
	// Reset the rate window so the re-close decision after cooldown is
	// made on fresh evidence, not the window that tripped it.
	b.ringN, b.ringIdx, b.ringFails = 0, 0, 0
}

// push adds one outcome to the rate window (caller holds the lock).
func (b *breaker) push(failed bool) {
	if b.ringN == breakerWindow {
		if b.ring[b.ringIdx] {
			b.ringFails--
		}
	} else {
		b.ringN++
	}
	b.ring[b.ringIdx] = failed
	if failed {
		b.ringFails++
	}
	b.ringIdx = (b.ringIdx + 1) % breakerWindow
}

// State reports the current state for /metrics (0 closed, 1 half-open,
// 2 open).
func (b *breaker) State() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Closed is the health view every reader shares: a backend is healthy
// exactly when its breaker is closed.
func (b *breaker) Closed() bool { return b.State() == breakerClosed }

// Transitions reports how many times the breaker opened and re-closed.
func (b *breaker) Transitions() (opened, reclosed uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opened, b.reclosed
}

// picker hands out one request's backend candidates in ring order,
// each admitted by its breaker's Allow. A picker asks each backend's
// breaker once per request and remembers the verdict, so every cell of
// a sweep shares one admission — a half-open backend receives one
// trial sub-sweep, not one per cell — and a request's routing does not
// depend on when its concurrent sub-dispatches finish. Safe for
// concurrent use.
type picker struct {
	mu       sync.Mutex
	admitted map[*backend]bool
}

// next returns the first backend of route that skip does not exclude
// and whose breaker admits an attempt, or nil when none does.
func (p *picker) next(route []*backend, skip map[*backend]bool) *backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.admitted == nil {
		p.admitted = make(map[*backend]bool, len(route))
	}
	for _, b := range route {
		if skip[b] {
			continue
		}
		ok, seen := p.admitted[b]
		if !seen {
			ok = b.breaker.Allow()
			p.admitted[b] = ok
		}
		if ok {
			return b
		}
	}
	return nil
}

// pick is next, except that when every breaker refuses it falls back
// to the first candidate skip does not exclude, unclaimed: a request
// is never failed without one backend being offered it (the cluster
// may be healthier than the breakers' last look). nil only when no
// candidate is left.
func (p *picker) pick(route []*backend, skip map[*backend]bool) *backend {
	if b := p.next(route, skip); b != nil {
		return b
	}
	for _, b := range route {
		if !skip[b] {
			return b
		}
	}
	return nil
}
