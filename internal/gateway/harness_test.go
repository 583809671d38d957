package gateway

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"busaware/internal/chaos"
	"busaware/internal/faults"
	"busaware/internal/server"
)

// The deterministic gateway harness: three in-process smpsimd backends
// behind a seeded chaos transport, a gateway on an injected clock, and
// a seeded run of /v1/simulate requests, sweeps and ring churn. Every
// seed must keep the serving contract:
//
//   - bodies: every 200 body (and every 200 sweep line) is byte-equal
//     to a direct, chaos-free backend's body for the same canonical key;
//   - errors: every non-200 is a 400, a 502, or a 503 carrying
//     X-Retry-Budget: exhausted;
//   - amplification: retries granted never exceed ratio × requests +
//     floor;
//   - no goroutine outlives the run;
//   - replay: re-running a seed reproduces its trace — every request's
//     status, serving backend and cache state, and every breaker's
//     final state and transition counts.
//
// Backends carry fixed ring names that the upstream transport dials to
// their real listeners, so the key-to-backend assignment does not
// depend on which ports the listeners got. Hedging is off and
// /v1/sweep is spared from chaos: both make the order of concurrent
// upstream attempts — and so the fault schedule — depend on goroutine
// timing, which replay could not reproduce.

const (
	harnessSeeds = 200
	harnessOps   = 30
	harnessRatio = 0.2
	harnessFloor = 2
	harnessDead  = "http://dead.harness"
)

// harnessNames are the ring identities of the three live backends.
var harnessNames = []string{"http://b0.harness", "http://b1.harness", "http://b2.harness"}

// harnessCells is the cell pool; pairs spell the same canonical key
// differently, so routing and byte-identity are checked across
// spellings.
var harnessCells = []string{
	`{"apps":"CG x2, BBMA"}`,
	`{"apps":"CG, CG, BBMA","policy":"window","seed":1}`,
	`{"apps":"CG, BBMA, nBBMA","policy":"linux","seed":1}`,
	`{"apps":"CG, BBMA, nBBMA","policy":"linux","seed":2}`,
	`{"apps":"CG, BBMA, nBBMA","policy":"linux","seed":3}`,
	`{"apps":"Raytrace, nBBMA x2"}`,
	`{"apps":"Raytrace, nBBMA, nBBMA","policy":"window","seed":1}`,
	`{"apps":"CG x2","policy":"latest","seed":4}`,
}

// harnessRef is a direct, chaos-free backend's answer for every pool
// cell, keyed by canonical key.
type harnessRef map[string][]byte

func newHarnessRef(t *testing.T) harnessRef {
	t.Helper()
	s := server.New(server.Config{Workers: 1})
	defer s.Close()
	ref := harnessRef{}
	for _, cell := range harnessCells {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(cell)))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", cell, rec.Code, rec.Body)
		}
		ref[cellKey(t, cell)] = rec.Body.Bytes()
	}
	return ref
}

func cellKey(t *testing.T, cell string) string {
	t.Helper()
	key, err := requestKey([]byte(cell))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// harnessRun is one seed's outcome.
type harnessRun struct {
	trace                         []string
	requests, retries             uint64
	simulated, swept              int
	failures, breakers, exhausted int
}

// runHarness drives one seed end to end and checks the per-request
// contract; the run-level checks are the caller's.
func runHarness(t *testing.T, seed int64, ref harnessRef) harnessRun {
	t.Helper()
	dial := map[string]string{}
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	for _, name := range harnessNames {
		s := server.New(server.Config{Workers: 1})
		ts := httptest.NewServer(s)
		closers = append(closers, s.Close, ts.Close)
		dial[strings.TrimPrefix(name, "http://")+":80"] = ts.Listener.Addr().String()
	}
	// The dead member dials a port nothing listens on: a refused dial.
	// Its listener closes only once every listener of the run is up, so
	// none of them can take the port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial[strings.TrimPrefix(harnessDead, "http://")+":80"] = ln.Addr().String()

	var d net.Dialer
	upstream := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := dial[addr]
			if !ok {
				return nil, fmt.Errorf("unknown backend %s", addr)
			}
			return d.DialContext(ctx, network, real)
		},
	}
	closers = append(closers, upstream.CloseIdleConnections)
	inj, err := chaos.New(chaos.Config{
		Seed:     seed,
		Reset:    chaos.Class{Prob: 0.08},
		Err5xx:   chaos.Class{Prob: 0.05},
		Truncate: chaos.Class{Prob: 0.05},
		Corrupt:  chaos.Class{Prob: 0.08},
		Latency:  chaos.Class{Prob: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	gw, err := New(Config{
		Backends:      harnessNames,
		ProbeInterval: -1,
		Client: &http.Client{Transport: &chaos.Transport{
			Base:  upstream,
			Inj:   inj,
			Sleep: faults.Sleeper(func(time.Duration) {}),
			Spare: map[string]bool{"/v1/sweep": true},
		}},
		BreakerFailures:  3,
		BreakerCooldown:  100 * time.Millisecond,
		HedgeDelayMin:    -1,
		RetryBudgetRatio: harnessRatio,
		RetryBudgetFloor: harnessFloor,
		Sleep:            faults.Sleeper(func(time.Duration) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.now = clk.now
	gwts := httptest.NewServer(gw)
	closers = append(closers, gw.Close, gwts.Close)
	ln.Close()
	client := &http.Client{Transport: &http.Transport{}}
	closers = append(closers, client.CloseIdleConnections)

	var run harnessRun
	rng := rand.New(rand.NewSource(seed))
	members := map[string]bool{harnessNames[0]: true, harnessNames[1]: true, harnessNames[2]: true}
	pool := append(append([]string(nil), harnessNames...), harnessDead)
	for op := 0; op < harnessOps; op++ {
		switch u := rng.Float64(); {
		case u < 0.62:
			run.simulated++
			cell := harnessCells[rng.Intn(len(harnessCells))]
			if rng.Float64() < 0.05 {
				cell = `{"apps":"NoSuchApp"}`
			}
			run.trace = append(run.trace, harnessSimulate(t, client, gwts.URL, cell, ref))
		case u < 0.80:
			run.swept++
			n := 2 + rng.Intn(4)
			cells := make([]string, n)
			for i := range cells {
				cells[i] = harnessCells[rng.Intn(len(harnessCells))]
			}
			if rng.Float64() < 0.2 {
				cells[rng.Intn(n)] = `{"apps":"CG","policy":"fifo"}`
			}
			run.trace = append(run.trace, harnessSweep(t, client, gwts.URL, cells, ref)...)
		default:
			addr := pool[rng.Intn(len(pool))]
			var err error
			if members[addr] {
				err = gw.RemoveBackend(addr)
			} else {
				err = gw.AddBackend(addr)
			}
			if err != nil {
				t.Fatalf("seed %d churn %s: %v", seed, addr, err)
			}
			members[addr] = !members[addr]
			run.trace = append(run.trace, fmt.Sprintf("churn %s %v", addr, members[addr]))
		}
		clk.advance(time.Duration(rng.Intn(150)) * time.Millisecond)
	}
	run.requests = gw.budget.requestsTotal.Load()
	run.retries = gw.budget.retriesTotal.Load()
	for _, b := range gw.cluster.Load().backends {
		opened, reclosed := b.breaker.Transitions()
		if opened > 0 {
			run.breakers++
		}
		run.trace = append(run.trace, fmt.Sprintf("breaker %s state %d opened %d reclosed %d",
			b.addr, b.breaker.State(), opened, reclosed))
	}
	for _, line := range run.trace {
		if strings.HasPrefix(line, "s") && !strings.Contains(line, " 200 ") {
			run.failures++
		}
		if strings.Contains(line, " 503 ") {
			run.exhausted++
		}
	}
	return run
}

// harnessSimulate sends one /v1/simulate and checks its body or error
// shape, returning its trace line.
func harnessSimulate(t *testing.T, client *http.Client, url, cell string, ref harnessRef) string {
	t.Helper()
	resp, err := client.Post(url+"/v1/simulate", "application/json", strings.NewReader(cell))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("simulate %d %s %s", resp.StatusCode,
		resp.Header.Get("X-Backend"), resp.Header.Get("X-Cache"))
	switch resp.StatusCode {
	case http.StatusOK:
		if want := ref[cellKey(t, cell)]; string(body) != string(want) {
			t.Fatalf("%s: 200 body diverged from the direct backend's", cell)
		}
	case http.StatusBadRequest, http.StatusBadGateway:
	case http.StatusServiceUnavailable:
		if resp.Header.Get("X-Retry-Budget") != "exhausted" {
			t.Fatalf("%s: 503 without X-Retry-Budget: exhausted: %s", cell, body)
		}
	default:
		t.Fatalf("%s: status %d (%s), want 200, 400, 502 or budget 503", cell, resp.StatusCode, body)
	}
	return line
}

// harnessSweep sends one /v1/sweep and checks every line, returning
// the lines' trace in cell order (the stream itself is in completion
// order).
func harnessSweep(t *testing.T, client *http.Client, url string, cells []string, ref harnessRef) []string {
	t.Helper()
	resp, err := client.Post(url+"/v1/sweep", "application/json",
		strings.NewReader(`{"cells":[`+strings.Join(cells, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	lines := readSweepLines(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(lines) != len(cells) {
		t.Fatalf("sweep status %d with %d lines for %d cells", resp.StatusCode, len(lines), len(cells))
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Index < lines[j].Index })
	trace := make([]string, len(lines))
	for i, l := range lines {
		if l.Index != i {
			t.Fatalf("sweep lines cover index %d twice or miss one", l.Index)
		}
		switch l.Status {
		case http.StatusOK:
			want := strings.TrimSuffix(string(ref[cellKey(t, cells[i])]), "\n")
			if string(l.Response) != want {
				t.Fatalf("sweep cell %s: 200 line diverged from the direct backend's body", cells[i])
			}
		case http.StatusBadRequest, http.StatusBadGateway:
		case http.StatusServiceUnavailable:
			if !strings.Contains(l.Error, "retry budget exhausted") {
				t.Fatalf("sweep cell %d: 503 not from the retry budget: %s", i, l.Error)
			}
		default:
			t.Fatalf("sweep cell %d: status %d (%s)", i, l.Status, l.Error)
		}
		trace[i] = fmt.Sprintf("sweep[%d] %d %s", i, l.Status, l.Backend)
	}
	return trace
}

// TestGatewayHarness runs every seed through the harness, replays one,
// and checks nothing leaked.
func TestGatewayHarness(t *testing.T) {
	ref := newHarnessRef(t)
	baseline := runtime.NumGoroutine()
	var total harnessRun
	for seed := int64(1); seed <= harnessSeeds; seed++ {
		run := runHarness(t, seed, ref)
		if limit := harnessRatio*float64(run.requests) + harnessFloor; float64(run.retries) > limit {
			t.Errorf("seed %d: %d retries for %d requests, over the %.1f budget",
				seed, run.retries, run.requests, limit)
		}
		total.simulated += run.simulated
		total.swept += run.swept
		total.failures += run.failures
		total.breakers += run.breakers
		total.retries += run.retries
		total.exhausted += run.exhausted
	}
	// The schedule must actually stress the machinery it checks.
	if total.breakers == 0 || total.retries == 0 || total.failures == 0 || total.exhausted == 0 {
		t.Errorf("harness too gentle: %d breaker trips, %d retries, %d failed results, %d budget refusals",
			total.breakers, total.retries, total.failures, total.exhausted)
	}
	t.Logf("%d seeds: %d simulates, %d sweeps, %d non-200 results (%d budget refusals), %d breakers opened, %d retries",
		harnessSeeds, total.simulated, total.swept, total.failures, total.exhausted, total.breakers, total.retries)

	for _, seed := range []int64{1, 7, 150} {
		a, b := runHarness(t, seed, ref), runHarness(t, seed, ref)
		if !reflect.DeepEqual(a.trace, b.trace) {
			t.Errorf("seed %d replay diverged:\n%s\nvs\n%s", seed,
				strings.Join(a.trace, "\n"), strings.Join(b.trace, "\n"))
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines leaked:\n%s", n-baseline, buf[:runtime.Stack(buf, true)])
	}
}
