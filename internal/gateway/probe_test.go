package gateway

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestProbeJitterRange: jitter maps the unit interval onto
// [0.5, 1.5) × interval, table-driven over the draw.
func TestProbeJitterRange(t *testing.T) {
	const interval = 2 * time.Second
	cases := []struct {
		u    float64
		want time.Duration
	}{
		{0, time.Second},
		{0.25, 1500 * time.Millisecond},
		{0.5, 2 * time.Second},
		{0.75, 2500 * time.Millisecond},
		{0.999, 2998 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := probeJitter(interval, tc.u); got != tc.want {
			t.Errorf("probeJitter(2s, %v) = %v, want %v", tc.u, got, tc.want)
		}
	}
}

// TestProbeBackoffThundering: a backend that stays dead is probed
// exponentially less often — a per-round prober would hit it every
// round, so a long outage cost one wasted probe per round per gateway
// (the herd). Probes go through the breaker: five failures open it,
// then each failed trial doubles the cooldown up to 16×.
func TestProbeBackoffThundering(t *testing.T) {
	var probes atomic.Int64
	var down atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer fake.Close()
	const cd = time.Second
	clk := newFakeClock()
	gw := newTestGateway(t, Config{Backends: []string{fake.URL}, BreakerCooldown: cd}, clk)

	down.Store(true)
	// One round per cooldown. Rounds 1-5 probe and open the breaker;
	// trials then fall due 1, 2, 4, 8 and 16 cooldowns after the last:
	// rounds 6, 8, 12, 20, 36. 40 rounds: 10 probes.
	for i := 0; i < 40; i++ {
		clk.advance(cd)
		gw.ProbeOnce()
	}
	if got := probes.Load(); got != 10 {
		t.Errorf("dead backend probed %d times in 40 rounds, want 10 (backoff)", got)
	}
	if gw.Healthy() != 0 {
		t.Fatal("dead backend not ejected")
	}

	// Recovery: the next trial probe re-admits it, at most a capped
	// backoff period away, and resets the backoff so a later ejection
	// is re-checked promptly again.
	down.Store(false)
	for i := 0; i < maxBackoff && gw.Healthy() == 0; i++ {
		clk.advance(cd)
		gw.ProbeOnce()
	}
	if gw.Healthy() != 1 {
		t.Fatal("recovered backend never re-admitted within a full backoff period")
	}
	if b := gw.cluster.Load().backends[0].breaker; b.backoff != 1 {
		t.Errorf("recovery left backoff %d×, want 1×", b.backoff)
	}
}
