package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"busaware/internal/chaos"
	"busaware/internal/digest"
	"busaware/internal/server"
)

// TestDigestMismatchRejected: a backend whose 200 body fails integrity
// verification is never served to the client — the gateway treats it
// as a failed attempt.
func TestDigestMismatchRejected(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(digest.Header, digest.Sum([]byte("what the backend meant to send")))
		w.Write([]byte(`{"corrupted":true}` + "\n"))
	}))
	defer fake.Close()
	gw, err := New(Config{Backends: []string{fake.URL}, ProbeInterval: -1, HedgeDelayMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	resp, body := post(t, ts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d %s, want 502 for a corrupt body", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "digest mismatch") {
		t.Errorf("error body %q does not name the digest mismatch", body)
	}
	if gw.metrics.digestMismatches.Load() == 0 {
		t.Error("digest mismatch not counted")
	}
}

// TestDigestVerifiedEndToEnd: a real backend's digest survives the
// gateway hop and matches the bytes the client receives.
func TestDigestVerifiedEndToEnd(t *testing.T) {
	c := newCluster(t, 2, Config{})
	resp, body := post(t, c.gwts.URL, "/v1/simulate", cellBody(7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	d := resp.Header.Get(digest.Header)
	if d == "" {
		t.Fatal("gateway response missing " + digest.Header)
	}
	if !digest.Verify(d, body) {
		t.Fatalf("digest %q does not verify against the delivered body", d)
	}
}

// TestRetryBudgetExhausted: once the global retry budget is spent,
// failed requests fail fast with 503 and the distinct budget marker
// instead of amplifying.
func TestRetryBudgetExhausted(t *testing.T) {
	const okBody = `{"ok":true}` + "\n"
	var flaky [2]atomic.Bool
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if flaky[i].Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(okBody))
		}))
	}
	b0, b1 := mk(0), mk(1)
	defer b0.Close()
	defer b1.Close()
	gw, err := New(Config{
		Backends:         []string{b0.URL, b1.URL},
		ProbeInterval:    -1,
		HedgeDelayMin:    -1,
		BreakerFailures:  100, // keep routing stable; this test is about the budget
		RetryBudgetRatio: 0.0001,
		RetryBudgetFloor: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	// Learn the owner of this cell, then make it fail persistently.
	resp, _ := post(t, ts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}
	owner := 0
	if resp.Header.Get("X-Backend") == strings.TrimPrefix(b1.URL, "http://") {
		owner = 1
	}
	flaky[owner].Store(true)

	// Budget floor 1: the first failure buys one failover (200 from the
	// survivor), the second finds the budget spent and fails fast.
	resp, body := post(t, ts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first failover: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("budget-exhausted request: %d %s, want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Retry-Budget"); got != "exhausted" {
		t.Errorf("X-Retry-Budget = %q, want \"exhausted\"", got)
	}
	if !strings.Contains(string(body), "retry budget exhausted") {
		t.Errorf("error body %q does not name the budget", body)
	}
	if gw.budget.exhaustedTotal.Load() == 0 {
		t.Error("exhaustion not counted")
	}
}

// TestChaosResetFailsOver: an injected connection reset on the wire to
// one attempt is absorbed by failover — the client still gets a clean,
// digest-verified 200 from a real backend.
func TestChaosResetFailsOver(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 1, Reset: chaos.Class{Prob: 1, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 2, Config{
		Client:        &http.Client{Transport: &chaos.Transport{Inj: inj}},
		HedgeDelayMin: -1,
	})
	resp, body := post(t, c.gwts.URL, "/v1/simulate", cellBody(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d %s, want 200 despite the injected reset", resp.StatusCode, body)
	}
	if !digest.Verify(resp.Header.Get(digest.Header), body) {
		t.Fatal("delivered body fails digest verification")
	}
	if inj.Stats().Resets != 1 {
		t.Fatalf("injected resets = %d, want 1", inj.Stats().Resets)
	}
	if c.gw.metrics.failovers.Load() == 0 {
		t.Error("reset absorbed without a counted failover")
	}
}

// TestChaosCorruptionCaught: injected body corruption is caught by the
// digest check and re-earned from another backend, never served.
func TestChaosCorruptionCaught(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Seed: 2, Corrupt: chaos.Class{Prob: 1, Max: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 2, Config{
		Client:        &http.Client{Transport: &chaos.Transport{Inj: inj}},
		HedgeDelayMin: -1,
	})
	resp, body := post(t, c.gwts.URL, "/v1/simulate", cellBody(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d %s, want 200 despite injected corruption", resp.StatusCode, body)
	}
	if !digest.Verify(resp.Header.Get(digest.Header), body) {
		t.Fatal("delivered body fails digest verification — corruption leaked through")
	}
	if c.gw.metrics.digestMismatches.Load() != 1 {
		t.Errorf("digest mismatches = %d, want 1", c.gw.metrics.digestMismatches.Load())
	}
}

// TestDeadlineStamped: the gateway stamps a downstream absolute
// deadline bounded by its attempt timeout.
func TestDeadlineStamped(t *testing.T) {
	var got atomic.Value
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(server.DeadlineHeader))
		w.Write([]byte(`{"ok":true}` + "\n"))
	}))
	defer fake.Close()
	gw, err := New(Config{
		Backends:       []string{fake.URL},
		ProbeInterval:  -1,
		HedgeDelayMin:  -1,
		AttemptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()

	before := time.Now()
	resp, _ := post(t, ts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	v, _ := got.Load().(string)
	if v == "" {
		t.Fatal("backend saw no " + server.DeadlineHeader)
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad deadline %q", v)
	}
	dl := time.UnixMilli(ms)
	if dl.Before(before) || dl.After(before.Add(6*time.Second)) {
		t.Errorf("stamped deadline %v outside (now, now+attempt timeout]", dl)
	}

	// A client-supplied earlier deadline wins over the attempt timeout.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(cellBody(1)))
	req.Header.Set("Content-Type", "application/json")
	clientDL := time.Now().Add(2 * time.Second)
	req.Header.Set(server.DeadlineHeader, strconv.FormatInt(clientDL.UnixMilli(), 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	v, _ = got.Load().(string)
	ms, _ = strconv.ParseInt(v, 10, 64)
	if !time.UnixMilli(ms).Equal(clientDL.Truncate(time.Millisecond)) {
		t.Errorf("stamped deadline %v, want the client's earlier %v", time.UnixMilli(ms), clientDL)
	}
}

// TestSweepHalfOpenTrial: sweeps are admitted through the breaker like
// single requests. Once an open breaker's cooldown has passed, a run of
// sweeps that keep failing on that backend sends it at most one trial
// per cooldown, and the failed trial re-arms the breaker — sweep
// traffic alone must not keep hammering an open backend.
func TestSweepHalfOpenTrial(t *testing.T) {
	good := httptest.NewServer(server.New(server.Config{Workers: 2}))
	defer good.Close()
	var hits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	const cd = time.Second
	clk := newFakeClock()
	gw := newTestGateway(t, Config{
		Backends:         []string{good.URL, bad.URL},
		BreakerFailures:  1,
		BreakerCooldown:  cd,
		HedgeDelayMin:    -1,
		RetryBudgetRatio: -1,
	}, clk)
	ts := httptest.NewServer(gw)
	defer ts.Close()

	// A batch with cells owned by both backends.
	var cells []string
	owned := 0
	for seed := 1; seed <= 8; seed++ {
		cells = append(cells, cellBody(seed))
		var req server.Request
		if err := json.Unmarshal([]byte(cellBody(seed)), &req); err != nil {
			t.Fatal(err)
		}
		key, err := server.CanonicalKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if gw.route(key)[0].addr == bad.URL {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("no cell owned by the failing backend")
	}
	body := `{"cells":[` + strings.Join(cells, ",") + `]}`
	sweep := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		lines := readSweepLines(t, resp.Body)
		resp.Body.Close()
		if len(lines) != len(cells) {
			t.Fatalf("got %d lines for %d cells", len(lines), len(cells))
		}
		for _, l := range lines {
			if l.Status != http.StatusOK {
				t.Fatalf("cell %d: status %d (%s), want failover to 200", l.Index, l.Status, l.Error)
			}
		}
	}
	bb := gw.cluster.Load().backends[1].breaker

	sweep() // trips the failing backend's breaker
	if bb.State() != breakerOpen {
		t.Fatal("failing sub-sweep did not open the breaker")
	}
	clk.advance(cd)
	hits.Store(0)
	for i := 0; i < 10; i++ {
		sweep()
	}
	if n := hits.Load(); n > 1 {
		t.Errorf("%d sub-sweeps reached the open backend in one cooldown, want at most 1 trial", n)
	}
	if bb.State() != breakerOpen {
		t.Errorf("breaker state %d after a failed trial, want open (re-armed)", bb.State())
	}
	if opened, _ := bb.Transitions(); opened != 2 {
		t.Errorf("breaker opened %d times, want 2 (trip, then re-arm)", opened)
	}
}

// TestSweepBudgetCreditsRoutedCells: only cells actually routed to a
// backend raise the retry allowance — a cell rejected locally with 400
// costs no backend attempt, so it must not buy retries either (the
// /v1/simulate path credits only after validation too).
func TestSweepBudgetCreditsRoutedCells(t *testing.T) {
	c := newCluster(t, 2, Config{})
	body := `{"cells":[` + cellBody(1) + `,{"apps":"NoSuchApp"},` + cellBody(2) + `]}`
	resp, err := http.Post(c.gwts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines := readSweepLines(t, resp.Body)
	resp.Body.Close()
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if got := c.gw.budget.requestsTotal.Load(); got != 2 {
		t.Errorf("retry budget credited %d units for 2 routed cells (+1 rejected locally), want 2", got)
	}
}
