// Package gateway is the horizontal scale-out layer over smpsimd: an
// HTTP front end that shards /v1/simulate and /v1/sweep requests
// across N backends by consistent hash of the canonical request key.
// Sharding by the same key the backends' response caches use means
// every repetition of a cell lands on the shard that already computed
// it, so per-backend caches stay hot instead of each backend slowly
// accumulating a lukewarm copy of the whole working set.
//
// The gateway treats the network between it and the backends as
// hostile, not merely unreliable:
//
//   - A per-backend circuit breaker is the only health state: it opens
//     on consecutive failures, a high recent error rate or a refused
//     dial, and recovers through half-open trials whose cooldown backs
//     off while they keep failing. Requests, sweep sub-dispatches and
//     the jittered /healthz prober are all admitted and recorded by it
//     (breaker.go, probe.go).
//   - Failover, 429 waits and hedges all draw on a global retry budget
//     so retries cannot amplify an overload; once the budget is spent,
//     requests fail fast with 503 and an "X-Retry-Budget: exhausted"
//     marker (budget.go).
//   - A straggling attempt is hedged to the next ring node after a
//     p99-based delay; the first response wins, the loser is canceled,
//     and when both complete their bytes are cross-checked (hedge.go).
//   - Response bodies carry FNV-64a integrity digests end to end; the
//     gateway verifies every backend body and treats corrupt bytes as
//     a retryable failure, never returning them to the client.
//   - Each backend attempt is bounded by AttemptTimeout and stamped
//     with an absolute X-Deadline-Ms so backends can shed work whose
//     requester has already given up.
//
// Requests the gateway can prove invalid (bad spec, unknown policy)
// are rejected locally without spending a backend round trip.
//
// Endpoints mirror smpsimd: POST /v1/simulate, POST /v1/sweep,
// GET /v1/timeline (backend telemetry streams multiplexed, summaries
// merged — see timeline.go), GET /healthz, GET /metrics (health,
// breaker, budget, hedge and digest counters under the smpgw_
// namespace).
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"busaware/internal/digest"
	"busaware/internal/faults"
	"busaware/internal/server"
)

// Config wires a Gateway. Backends is required; everything else has a
// serviceable zero value.
type Config struct {
	// Backends are the smpsimd base URLs, e.g.
	// "http://127.0.0.1:8081". At least one is required.
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (0 = 128).
	Replicas int
	// ProbeInterval spaces the /healthz probes; the actual delay is
	// jittered in [0.5, 1.5) × interval (0 = 2s, negative = probing
	// disabled; tests drive probes explicitly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (0 = 1s).
	ProbeTimeout time.Duration
	// Retry429 is how many times a 429 from the shard owner is retried
	// (honoring Retry-After) before being passed to the client (0 = 2,
	// negative = no retries).
	Retry429 int
	// MaxRetryAfter caps how long one Retry-After hint is honored
	// (0 = 5s).
	MaxRetryAfter time.Duration
	// BreakerFailures is the consecutive-failure run (requests and
	// probes alike) that opens a backend's circuit breaker (0 = 5).
	BreakerFailures int
	// BreakerCooldown is the open → half-open trial delay (0 = 2s);
	// each failed trial doubles it, up to 16×.
	BreakerCooldown time.Duration
	// RetryBudgetRatio caps extra backend attempts (failover, 429
	// retries, hedges) at ratio × recent request volume (0 = 0.5,
	// negative = unlimited).
	RetryBudgetRatio float64
	// RetryBudgetFloor is the minimum retry allowance per accounting
	// window, so a quiet gateway can still retry (0 = 16).
	RetryBudgetFloor int
	// AttemptTimeout bounds one backend attempt — and serves as the
	// idle watchdog on sweep streams — so a blackholed connection
	// cannot pin a request forever (0 = 15s, negative = unbounded).
	AttemptTimeout time.Duration
	// HedgeDelayMin floors the hedge delay; the effective delay is
	// max(HedgeDelayMin, tracked p99) (0 = 250ms, negative = hedging
	// disabled).
	HedgeDelayMin time.Duration
	// Client overrides the proxy HTTP client (nil = keep-alive pooled
	// transport, no global timeout — attempts carry their own).
	Client *http.Client
	// Sleep substitutes the retry clock, so tests assert backoff
	// without real sleeping.
	Sleep faults.Sleeper
}

// backend is the gateway's view of one smpsimd process.
type backend struct {
	addr string

	inflight atomic.Int64
	breaker  *breaker

	// shed counts 429s received from this backend; failovers counts
	// requests moved off it after failures.
	shed      atomic.Uint64
	failovers atomic.Uint64
}

// cluster is one immutable snapshot of the routing membership: the
// consistent-hash ring and the backend structs it indexes, always in
// step with each other. Readers load the current snapshot atomically;
// membership changes build a new one under clusterMu and swap it in,
// so every in-flight request keeps a coherent ring view while the
// cluster resizes. Backend structs are reused across snapshots (same
// address ⇒ same pointer), so breaker state and inflight gauges
// survive rebuilds and in-flight attempts against a
// just-removed backend account correctly.
type membership struct {
	ring     *ring
	backends []*backend
}

// Gateway shards requests across backends. Create with New, serve via
// http.Server, Close to stop the prober. Membership is elastic:
// AddBackend/RemoveBackend (or POST /admin/backends) resize the ring
// at runtime.
type Gateway struct {
	cfg     Config
	client  *http.Client
	probec  *http.Client
	sleep   faults.Sleeper
	metrics *gwMetrics
	budget  *retryBudget
	tracker *latencyTracker
	mux     *http.ServeMux
	// now is the breakers' and the retry budget's clock; tests replace
	// it before serving.
	now func() time.Time

	cluster   atomic.Pointer[membership]
	clusterMu sync.Mutex // serializes membership changes

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a Gateway over cfg.Backends and starts the health prober
// (unless ProbeInterval < 0). Backends start with closed breakers —
// optimism lets the gateway serve before the first probe round; a dead
// backend's breaker opens on its first refused dial.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.Retry429 == 0 {
		cfg.Retry429 = 2
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 5 * time.Second
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.RetryBudgetRatio == 0 {
		cfg.RetryBudgetRatio = 0.5
	}
	if cfg.RetryBudgetFloor <= 0 {
		cfg.RetryBudgetFloor = 16
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 15 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		}
	}
	g := &Gateway{
		cfg:     cfg,
		client:  client,
		probec:  &http.Client{Timeout: cfg.ProbeTimeout},
		sleep:   cfg.Sleep,
		metrics: newGWMetrics(),
		budget:  newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetFloor),
		tracker: &latencyTracker{},
		mux:     http.NewServeMux(),
		now:     time.Now,
		stop:    make(chan struct{}),
	}
	g.budget.now = g.clock
	backends := make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		backends[i] = g.newBackend(addr)
	}
	g.cluster.Store(&membership{ring: newRing(cfg.Backends, cfg.Replicas), backends: backends})
	g.mux.HandleFunc("/v1/simulate", g.handleSimulate)
	g.mux.HandleFunc("/v1/sweep", g.handleSweep)
	g.mux.HandleFunc("/v1/timeline", g.handleTimeline)
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux.HandleFunc("/admin/backends", g.handleAdminBackends)
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	if interval > 0 {
		g.wg.Add(1)
		go g.probeLoop(interval)
	}
	return g, nil
}

// ServeHTTP dispatches to the gateway endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close stops the health prober. In-flight proxied requests are not
// interrupted.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

// clock reads g.now, so a clock swapped in by a test reaches every
// breaker.
func (g *Gateway) clock() time.Time { return g.now() }

// newBackend builds one backend struct in its starting state (breaker
// closed — optimism lets it serve before the first probe round).
func (g *Gateway) newBackend(addr string) *backend {
	return &backend{
		addr:    addr,
		breaker: newBreaker(g.cfg.BreakerFailures, g.cfg.BreakerCooldown, g.clock),
	}
}

// route returns key's backends in ring preference order; breaker
// admission is the picker's job. Empty when every backend has been
// removed from the ring.
func (g *Gateway) route(key string) []*backend {
	c := g.cluster.Load()
	seq := c.ring.sequence(key)
	ordered := make([]*backend, len(seq))
	for i, j := range seq {
		ordered[i] = c.backends[j]
	}
	return ordered
}

// gwError writes the JSON error envelope (same shape as smpsimd's).
func (g *Gateway) gwError(w http.ResponseWriter, started time.Time, code int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
	g.metrics.observe(code)
}

// maxBodyBytes mirrors the backend's /v1/simulate body cap.
const maxBodyBytes = 1 << 20

// errBudgetExhausted distinguishes fail-fast budget refusals from
// ordinary backend unreachability.
var errBudgetExhausted = errors.New("retry budget exhausted")

// errDigestMismatch marks a transport-valid response whose bytes
// failed integrity verification.
var errDigestMismatch = errors.New("response digest mismatch")

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		g.gwError(w, started, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		g.gwError(w, started, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	key, err := requestKey(body)
	if err != nil {
		// Invalid cell: reject here, spend no backend round trip.
		g.gwError(w, started, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := server.ParseDeadline(r.Header)
	if err != nil {
		g.gwError(w, started, http.StatusBadRequest, err.Error())
		return
	}

	resp, b, err := g.forward(r, g.route(key), proxyCall{
		path: "/v1/simulate", body: body, deadline: deadline,
	})
	if err != nil {
		if errors.Is(err, errBudgetExhausted) {
			w.Header().Set("X-Retry-Budget", "exhausted")
			g.gwError(w, started, http.StatusServiceUnavailable, err.Error())
			return
		}
		g.gwError(w, started, http.StatusBadGateway, err.Error())
		return
	}
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	for _, h := range []string{"X-Cache", "Retry-After", digest.Header} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Backend", resp.Request.URL.Host)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(resp.StatusCode)
	w.Write(b)
	g.metrics.observe(resp.StatusCode)
}

// requestKey decodes one cell body and returns its canonical key,
// using exactly the backend's decoding discipline so the gateway never
// forwards a request the backend would reject — nor rejects one it
// would accept.
func requestKey(body []byte) (string, error) {
	var req server.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", fmt.Errorf("bad request body: %v", err)
	}
	return server.CanonicalKey(req)
}

// proxyCall is one client request as the proxy layer sees it.
type proxyCall struct {
	path string
	body []byte
	// deadline is the client-supplied absolute deadline (zero = none);
	// attempts stamp min(deadline, attempt timeout) downstream.
	deadline time.Time
}

// attemptResult is one backend attempt's outcome.
type attemptResult struct {
	resp  *http.Response
	body  []byte
	err   error
	b     *backend
	hedge bool
}

// usable reports whether the attempt produced a response the client
// should see (success, client error, deadline pass-through, or a 429
// that survived its retries) rather than one worth retrying elsewhere.
func (a attemptResult) usable() bool {
	return a.err == nil && !retryableStatus(a.resp.StatusCode)
}

// retryableStatus marks backend responses that another backend might
// answer better: internal errors and (possibly injected) gateway-class
// 5xx. 504 passes through — the deadline is the client's, and a retry
// would bust it anyway.
func retryableStatus(code int) bool {
	return code == http.StatusInternalServerError ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// forward proxies one call to the preferred backend with the full
// resilience ladder: per-attempt timeout and integrity verification,
// circuit-breaker admission, a p99-delay hedge to the next ring node,
// and budget-gated failover. The first usable response wins; its body
// is fully read and closed. Hedge losers are canceled, and if a loser
// completes anyway its bytes are cross-checked against the winner.
func (g *Gateway) forward(r *http.Request, route []*backend, call proxyCall) (*http.Response, []byte, error) {
	if len(route) == 0 {
		return nil, nil, fmt.Errorf("no backends")
	}
	g.budget.OnRequest(1)
	ctx := r.Context()

	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	resc := make(chan attemptResult, len(route)+1)
	outstanding := 0
	hedged := false
	// Candidates come from the picker, which claims each one's breaker
	// admission; tried keeps failover and hedges off backends already
	// attempted.
	var p picker
	tried := make(map[*backend]bool, len(route))

	launch := func(b *backend, hedge bool) {
		tried[b] = true
		actx := ctx
		if at := g.cfg.AttemptTimeout; at > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, at)
			cancels = append(cancels, cancel)
		}
		outstanding++
		go func() {
			resp, rb, err := g.attempt(actx, ctx, b, call)
			resc <- attemptResult{resp: resp, body: rb, err: err, b: b, hedge: hedge}
		}()
	}
	launch(p.pick(route, nil), false)

	var hedgec <-chan time.Time
	if d := g.hedgeDelay(); d > 0 && len(route) > 1 {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgec = t.C
	}

	var last attemptResult
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-hedgec:
			hedgec = nil
			if b := p.next(route, tried); b != nil && g.budget.TryRetry(1) {
				hedged = true
				g.metrics.hedgesLaunched.Add(1)
				launch(b, true)
			}
		case res := <-resc:
			outstanding--
			if res.usable() {
				if hedged {
					if res.hedge {
						g.metrics.hedgeWins.Add(1)
					} else {
						g.metrics.hedgePrimaryWins.Add(1)
					}
				}
				if outstanding > 0 {
					g.reapLosers(resc, outstanding, res)
				}
				return res.resp, res.body, nil
			}
			last = res
			if outstanding > 0 {
				continue // the other in-flight attempt may still win
			}
			b := p.next(route, tried)
			if b == nil {
				break
			}
			if !g.budget.TryRetry(1) {
				return nil, nil, fmt.Errorf("%w (last backend error: %v)", errBudgetExhausted, lastErrOf(last))
			}
			res.b.failovers.Add(1)
			g.metrics.failovers.Add(1)
			launch(b, false)
		}
	}
	// No usable response and no candidates left: 502, as a sweep cell
	// in the same state gets. A retryable 5xx from the last backend
	// tried is no more definitive than a transport error — the other
	// candidates may only have been skipped by their breakers.
	return nil, nil, fmt.Errorf("backend unreachable: %s", lastErrOf(last))
}

// lastErrOf renders the failure reason of an unusable attempt.
func lastErrOf(a attemptResult) string {
	if a.err != nil {
		return a.err.Error()
	}
	if a.resp != nil {
		return fmt.Sprintf("backend status %d", a.resp.StatusCode)
	}
	return "no attempt completed"
}

// reapLosers drains the canceled hedge/failover losers in the
// background. If a loser completed with a success anyway, its bytes
// are cross-checked against the winner — byte-identity between hedge
// and original is an invariant (the backends replay cached bodies
// byte-identically), so a divergence means corruption slipped past a
// digest or a backend broke the determinism contract.
func (g *Gateway) reapLosers(resc <-chan attemptResult, n int, winner attemptResult) {
	go func() {
		for i := 0; i < n; i++ {
			res := <-resc
			if res.err != nil || res.resp.StatusCode != http.StatusOK {
				continue
			}
			if winner.resp.StatusCode == http.StatusOK && !bytes.Equal(res.body, winner.body) {
				g.metrics.hedgeMismatches.Add(1)
			}
		}
	}()
}

// attempt runs one backend attempt to completion: the round trip, the
// same-shard 429 retry loop, integrity verification, and breaker and
// latency accounting. parent is the client's context — when it is the
// reason everything is failing, the backend is not blamed.
func (g *Gateway) attempt(ctx, parent context.Context, b *backend, call proxyCall) (*http.Response, []byte, error) {
	retries := g.cfg.Retry429
	for {
		started := time.Now()
		resp, rb, err := g.roundTrip(ctx, b, call)
		if err != nil {
			if parent.Err() == nil {
				// Charge the backend only when the client did not go
				// away first.
				b.breaker.Record(err)
			}
			return nil, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			b.shed.Add(1)
			if retries > 0 && g.budget.TryRetry(1) {
				retries--
				g.metrics.retries.Add(1)
				g.sleep.Sleep(g.retryAfter(resp))
				continue
			}
			// Reachable, just saturated: not a breaker failure.
			b.breaker.Record(nil)
			return resp, rb, nil
		}
		if resp.StatusCode == http.StatusOK {
			if !digest.Verify(resp.Header.Get(digest.Header), rb) {
				g.metrics.digestMismatches.Add(1)
				err := fmt.Errorf("%s: %w", b.addr, errDigestMismatch)
				b.breaker.Record(err)
				return nil, nil, err
			}
			g.tracker.record(time.Since(started))
		}
		var outcome error
		if retryableStatus(resp.StatusCode) {
			outcome = fmt.Errorf("%s: backend status %d", b.addr, resp.StatusCode)
		}
		b.breaker.Record(outcome)
		return resp, rb, nil
	}
}

// roundTrip performs one proxied POST, reading the whole response. The
// downstream deadline header is min(client deadline, attempt timeout)
// so backends can shed work whose requester has already given up.
func (g *Gateway) roundTrip(ctx context.Context, b *backend, call proxyCall) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+call.path, bytes.NewReader(call.body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Disable net/http's transparent replay of requests that die on
	// reused connections: every retry must flow through the budget.
	req.GetBody = nil
	dl := call.deadline
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	if !dl.IsZero() {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
	}
	b.inflight.Add(1)
	resp, err := g.client.Do(req)
	if err != nil {
		b.inflight.Add(-1)
		return nil, nil, err
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.inflight.Add(-1)
	if err != nil {
		return nil, nil, err
	}
	return resp, rb, nil
}

// retryAfter extracts the backend's backoff hint, defaulting to 1s and
// capping at MaxRetryAfter.
func (g *Gateway) retryAfter(resp *http.Response) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > g.cfg.MaxRetryAfter {
		d = g.cfg.MaxRetryAfter
	}
	return d
}

// Healthy reports how many backends' breakers are closed.
func (g *Gateway) Healthy() int {
	n := 0
	for _, b := range g.cluster.Load().backends {
		if b.breaker.Closed() {
			n++
		}
	}
	return n
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type backendHealth struct {
		Addr      string `json:"addr"`
		Healthy   bool   `json:"healthy"`
		Breaker   string `json:"breaker"`
		Inflight  int64  `json:"inflight"`
		Shed      uint64 `json:"shed"`
		Failovers uint64 `json:"failovers"`
	}
	out := struct {
		Status   string          `json:"status"`
		Backends []backendHealth `json:"backends"`
	}{Status: "ok"}
	for _, b := range g.cluster.Load().backends {
		out.Backends = append(out.Backends, backendHealth{
			Addr:      b.addr,
			Healthy:   b.breaker.Closed(),
			Breaker:   breakerStateName(b.breaker.State()),
			Inflight:  b.inflight.Load(),
			Shed:      b.shed.Load(),
			Failovers: b.failovers.Load(),
		})
	}
	if g.Healthy() == 0 {
		out.Status = "degraded"
	}
	body, _ := json.Marshal(out)
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// breakerStateName renders a breaker state for humans.
func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.metrics.write(w, g.cluster.Load().backends, g.budget)
}
