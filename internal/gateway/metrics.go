package gateway

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// gwMetrics accumulates the gateway-side counters for /metrics, in the
// same hand-rolled Prometheus text exposition as the backend (the
// repository is dependency-free by charter). Per-backend gauges are
// read live from the backend structs at render time.
type gwMetrics struct {
	mu    sync.Mutex
	codes map[int]uint64

	// failovers counts requests moved to another ring node after a
	// connection error; retries counts 429s absorbed by waiting out
	// Retry-After; sweepCells counts per-cell sweep lines forwarded.
	failovers  atomic.Uint64
	retries    atomic.Uint64
	sweepCells atomic.Uint64

	// Hedging: hedges launched, which side won a hedged race, and how
	// often a completed hedge loser's bytes diverged from the winner's
	// (should stay 0 — backends replay cached bodies byte-identically).
	hedgesLaunched   atomic.Uint64
	hedgeWins        atomic.Uint64
	hedgePrimaryWins atomic.Uint64
	hedgeMismatches  atomic.Uint64

	// digestMismatches counts backend responses whose body failed
	// X-Content-Digest verification and were retried instead of served.
	digestMismatches atomic.Uint64

	// ringAdds/ringRemoves count runtime membership changes.
	ringAdds    atomic.Uint64
	ringRemoves atomic.Uint64
}

func newGWMetrics() *gwMetrics {
	return &gwMetrics{codes: make(map[int]uint64)}
}

// observe records one finished gateway request by status code.
func (m *gwMetrics) observe(code int) {
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
}

// write renders the exposition: request counters plus live per-backend
// gauges, breaker states and the retry-budget ledger.
func (m *gwMetrics) write(w io.Writer, backends []*backend, budget *retryBudget) {
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	codeVals := make([]uint64, len(codes))
	for i, c := range codes {
		codeVals[i] = m.codes[c]
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP smpgw_requests_total Gateway requests finished, by HTTP status code.")
	fmt.Fprintln(w, "# TYPE smpgw_requests_total counter")
	for i, c := range codes {
		fmt.Fprintf(w, "smpgw_requests_total{code=\"%d\"} %d\n", c, codeVals[i])
	}

	fmt.Fprintln(w, "# HELP smpgw_failovers_total Requests failed over to the next ring node after a backend failure.")
	fmt.Fprintln(w, "# TYPE smpgw_failovers_total counter")
	fmt.Fprintf(w, "smpgw_failovers_total %d\n", m.failovers.Load())

	fmt.Fprintln(w, "# HELP smpgw_retries_total Backend 429s absorbed by honoring Retry-After.")
	fmt.Fprintln(w, "# TYPE smpgw_retries_total counter")
	fmt.Fprintf(w, "smpgw_retries_total %d\n", m.retries.Load())

	fmt.Fprintln(w, "# HELP smpgw_sweep_cells_total Sweep cells forwarded through the gateway.")
	fmt.Fprintln(w, "# TYPE smpgw_sweep_cells_total counter")
	fmt.Fprintf(w, "smpgw_sweep_cells_total %d\n", m.sweepCells.Load())

	fmt.Fprintln(w, "# HELP smpgw_retry_budget_requests_total Client-facing work units credited to the retry budget.")
	fmt.Fprintln(w, "# TYPE smpgw_retry_budget_requests_total counter")
	fmt.Fprintf(w, "smpgw_retry_budget_requests_total %d\n", budget.requestsTotal.Load())
	fmt.Fprintln(w, "# HELP smpgw_retry_budget_retries_total Extra backend attempts (failover, 429 retry, hedge) granted by the retry budget.")
	fmt.Fprintln(w, "# TYPE smpgw_retry_budget_retries_total counter")
	fmt.Fprintf(w, "smpgw_retry_budget_retries_total %d\n", budget.retriesTotal.Load())
	fmt.Fprintln(w, "# HELP smpgw_retry_budget_exhausted_total Retry attempts refused because the budget was spent.")
	fmt.Fprintln(w, "# TYPE smpgw_retry_budget_exhausted_total counter")
	fmt.Fprintf(w, "smpgw_retry_budget_exhausted_total %d\n", budget.exhaustedTotal.Load())

	fmt.Fprintln(w, "# HELP smpgw_hedges_total Hedged-request events by outcome.")
	fmt.Fprintln(w, "# TYPE smpgw_hedges_total counter")
	fmt.Fprintf(w, "smpgw_hedges_total{outcome=\"launched\"} %d\n", m.hedgesLaunched.Load())
	fmt.Fprintf(w, "smpgw_hedges_total{outcome=\"hedge_win\"} %d\n", m.hedgeWins.Load())
	fmt.Fprintf(w, "smpgw_hedges_total{outcome=\"primary_win\"} %d\n", m.hedgePrimaryWins.Load())
	fmt.Fprintf(w, "smpgw_hedges_total{outcome=\"mismatch\"} %d\n", m.hedgeMismatches.Load())

	fmt.Fprintln(w, "# HELP smpgw_digest_mismatch_total Backend responses rejected for failing X-Content-Digest verification.")
	fmt.Fprintln(w, "# TYPE smpgw_digest_mismatch_total counter")
	fmt.Fprintf(w, "smpgw_digest_mismatch_total %d\n", m.digestMismatches.Load())

	fmt.Fprintln(w, "# HELP smpgw_ring_backends Backends currently on the consistent-hash ring.")
	fmt.Fprintln(w, "# TYPE smpgw_ring_backends gauge")
	fmt.Fprintf(w, "smpgw_ring_backends %d\n", len(backends))
	fmt.Fprintln(w, "# HELP smpgw_ring_changes_total Runtime ring membership changes, by operation.")
	fmt.Fprintln(w, "# TYPE smpgw_ring_changes_total counter")
	fmt.Fprintf(w, "smpgw_ring_changes_total{op=\"add\"} %d\n", m.ringAdds.Load())
	fmt.Fprintf(w, "smpgw_ring_changes_total{op=\"remove\"} %d\n", m.ringRemoves.Load())

	fmt.Fprintln(w, "# HELP smpgw_backend_healthy Backend admitted for routing (1) or ejected (0).")
	fmt.Fprintln(w, "# TYPE smpgw_backend_healthy gauge")
	for _, b := range backends {
		h := 0
		if b.breaker.Closed() {
			h = 1
		}
		fmt.Fprintf(w, "smpgw_backend_healthy{backend=%q} %d\n", b.addr, h)
	}
	fmt.Fprintln(w, "# HELP smpgw_breaker_state Circuit-breaker state per backend (0 closed, 1 half-open, 2 open).")
	fmt.Fprintln(w, "# TYPE smpgw_breaker_state gauge")
	for _, b := range backends {
		fmt.Fprintf(w, "smpgw_breaker_state{backend=%q} %d\n", b.addr, b.breaker.State())
	}
	fmt.Fprintln(w, "# HELP smpgw_breaker_transitions_total Circuit-breaker transitions per backend, by destination state.")
	fmt.Fprintln(w, "# TYPE smpgw_breaker_transitions_total counter")
	for _, b := range backends {
		opened, reclosed := b.breaker.Transitions()
		fmt.Fprintf(w, "smpgw_breaker_transitions_total{backend=%q,to=\"open\"} %d\n", b.addr, opened)
		fmt.Fprintf(w, "smpgw_breaker_transitions_total{backend=%q,to=\"closed\"} %d\n", b.addr, reclosed)
	}
	fmt.Fprintln(w, "# HELP smpgw_backend_inflight Proxied requests currently outstanding against the backend.")
	fmt.Fprintln(w, "# TYPE smpgw_backend_inflight gauge")
	for _, b := range backends {
		fmt.Fprintf(w, "smpgw_backend_inflight{backend=%q} %d\n", b.addr, b.inflight.Load())
	}
	fmt.Fprintln(w, "# HELP smpgw_backend_shed_total 429 responses received from the backend.")
	fmt.Fprintln(w, "# TYPE smpgw_backend_shed_total counter")
	for _, b := range backends {
		fmt.Fprintf(w, "smpgw_backend_shed_total{backend=%q} %d\n", b.addr, b.shed.Load())
	}
	fmt.Fprintln(w, "# HELP smpgw_backend_failovers_total Requests moved off the backend after failures.")
	fmt.Fprintln(w, "# TYPE smpgw_backend_failovers_total counter")
	for _, b := range backends {
		fmt.Fprintf(w, "smpgw_backend_failovers_total{backend=%q} %d\n", b.addr, b.failovers.Load())
	}
}
