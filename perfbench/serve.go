package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"busaware"
	"busaware/internal/digest"
	"busaware/internal/server"
	"busaware/internal/store"
)

// The serving workloads drive POST /v1/simulate or /v1/sweep through
// the gateway with a closed loop of nproc clients: every real caller of
// the serving plane (figure scripts, smpload, the gateway's own
// fan-out) waits for its reply before sending the next request.

const (
	// warmSetSize is the serve-warm working set, well under the
	// per-backend tier-1 capacity (server.DefaultCacheSize = 256).
	warmSetSize = 128
	// sweepSetSize is the sweep-replay working set: four times the
	// per-backend tier-1 capacity, so a cyclic read order always misses
	// tier 1 and is served from tier 2.
	sweepSetSize = 4 * server.DefaultCacheSize
	// sweepBatch is the number of cells in one /v1/sweep request.
	sweepBatch = 32
	// coldPass is the serve-cold pass for sweep_s: the size of the
	// figure set's cell grid.
	coldPass = figureCells
	// tracedBase offsets the operation indices of a traced phase, so
	// its first operations are the same keys on every run of a seed;
	// warmupBase those of the serve-cold warm-up at set-up.
	tracedBase = 1 << 30
	warmupBase = 1 << 29
	// coldWarmup is the number of serve-cold warm-up requests.
	coldWarmup = 32
	// replayCount is how many of the traced phase's first serve-cold
	// cells are replayed behind the scheduler decorator.
	replayCount = 48
	// linuxSamples bounds the serve-cold Linux responses recomputed
	// without HTTP per phase; Quanta Window bodies do not depend on
	// the seed, so every one of them is compared.
	linuxSamples = 16
)

// counters are the serving plane's own counters, read around a phase.
type counters struct {
	cache           server.CacheStats
	store           store.TierStats
	hedges, retries float64
}

func (e *env) counters() (counters, error) {
	c := counters{cache: e.cacheStats(), store: e.storeStats()}
	var err error
	if c.hedges, err = e.gatewayCounter(`smpgw_hedges_total{outcome="launched"}`); err != nil {
		return c, err
	}
	c.retries, err = e.gatewayCounter("smpgw_retries_total")
	return c, err
}

// plane is the part every serving workload shares: the environment
// and how its counters moved over the last phase.
type plane struct {
	o     options
	dir   string
	e     *env
	delta counters // counter growth over the last phase
}

func (p *plane) close() { p.e.close() }

// drive runs one closed-loop phase and records how the plane's
// counters moved over it.
func (p *plane) drive(d time.Duration, traced bool, base int64, do func(i int64) (int, bool)) (*phase, error) {
	before, err := p.e.counters()
	if err != nil {
		return nil, err
	}
	p.e.tr.setOn(traced)
	ph := closedLoop(p.o.clients, d, base, do)
	p.e.tr.setOn(false)
	after, err := p.e.counters()
	if err != nil {
		return nil, err
	}
	p.delta = counters{
		cache: server.CacheStats{Hits: after.cache.Hits - before.cache.Hits, Misses: after.cache.Misses - before.cache.Misses},
		store: store.TierStats{
			Hits: after.store.Hits - before.store.Hits, Misses: after.store.Misses - before.store.Misses,
			Puts: after.store.Puts - before.store.Puts, VerifyFails: after.store.VerifyFails - before.store.VerifyFails,
		},
		hedges:  after.hedges - before.hedges,
		retries: after.retries - before.retries,
	}
	if after.cache.Conflicts != 0 || after.store.Conflicts != 0 || after.store.VerifyFails != 0 {
		failf("byte-identity conflicts (tier 1 %d, tier 2 %d) or tier-2 verify failures (%d)",
			after.cache.Conflicts, after.store.Conflicts, after.store.VerifyFails)
		ph.failAll()
	}
	return ph, nil
}

// checkReply checks a /v1/simulate reply: 200, the expected X-Cache
// state, and a present digest that verifies.
func checkReply(rep *reply, cache string) bool {
	if rep.status != http.StatusOK {
		failf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
		return false
	}
	if got := rep.header.Get("X-Cache"); got != cache {
		failf("X-Cache %q, want %q", got, cache)
		return false
	}
	if d := rep.header.Get(digest.Header); d == "" || !digest.Verify(d, rep.body) {
		failf("digest %q does not verify", d)
		return false
	}
	return true
}

// servingLayers derives the span-based and counter-based per-layer
// metrics of a traced serving phase.
func (p *plane) servingLayers(traced *phase, vals map[string]float64) {
	spans := p.e.tr.snapshot()
	self := selfTimes(spans)
	dur := durations(spans)
	vals["client.self_us"] = median(self[spanClient])
	vals["gateway.handler_us"] = median(dur[spanGateway])
	vals["gateway.self_us"] = median(self[spanGateway])
	vals["gateway.upstream_us"] = median(dur[spanUpstream])
	vals["net.hop_us"] = median(self[spanUpstream])
	vals["server.handler_us"] = median(dur[spanServer])
	vals["gateway.amplification"] = ratio(float64(len(dur[spanUpstream])), float64(len(dur[spanClient])))
	sum := vals["client.self_us"] + vals["gateway.self_us"] + vals["net.hop_us"] + vals["server.handler_us"]
	vals["bench.layer_sum_ratio"] = ratio(sum, traced.percentile(0.5)*1e3)

	d := p.delta
	vals["server.tier1_hit_ratio"] = ratio(float64(d.cache.Hits), float64(d.cache.Hits+d.cache.Misses))
	vals["store.tier2_hit_ratio"] = ratio(float64(d.store.Hits), float64(d.store.Hits+d.store.Misses))
	vals["store.verify_failures"] = float64(d.store.VerifyFails)
	vals["store.puts"] = ratio(float64(d.store.Puts), float64(traced.cells))
	vals["gateway.hedges"] = d.hedges
	vals["gateway.retries"] = d.retries
}

// ---- serve-cold ----

type coldInst struct {
	plane
	// windowBody is the expected body of each Quanta Window template;
	// nil for the Linux template, whose body depends on the seed.
	windowBody [][]byte

	mu      sync.Mutex
	sampled map[int64][]byte // Linux replies kept for the direct check
	served  map[int64][]byte // replies of the operations replayed
}

// setupCold starts the plane, computes the Quanta Window templates'
// bodies without HTTP, and warms the plane (connections, pool, store
// directories) with fresh keys the measured phases never send.
func setupCold(o options, dir string, tr *tracer) (instance, error) {
	c := &coldInst{plane: plane{o: o, dir: dir}}
	for _, t := range coldTemplates {
		var body []byte
		if t.Policy != "linux" {
			var err error
			if body, _, err = directBody(t); err != nil {
				return nil, err
			}
		}
		c.windowBody = append(c.windowBody, body)
	}
	e, err := newEnv(ownStores(dir), tr)
	if err != nil {
		return nil, err
	}
	c.e = e
	warm := make([][]byte, coldWarmup)
	for k := range warm {
		warm[k], _ = json.Marshal(coldRequest(o.seed, warmupBase+int64(k)))
	}
	if _, err := e.preload(o.clients, warm); err != nil {
		e.close()
		return nil, fmt.Errorf("serve-cold warm-up: %w", err)
	}
	return c, nil
}

func (c *coldInst) passCells() int { return coldPass }

func (c *coldInst) measure(d time.Duration, traced bool) (*phase, error) {
	base := int64(0)
	if traced {
		base = tracedBase
	}
	c.sampled = map[int64][]byte{}
	c.served = map[int64][]byte{}
	ph, err := c.drive(d, traced, base, func(i int64) (int, bool) {
		req := coldRequest(c.o.seed, i)
		body, _ := json.Marshal(req)
		rep, err := c.e.simulate(body, uint64(i)+1, traced)
		if err != nil {
			failf("simulate %d: %v", i, err)
			return 0, false
		}
		if !checkReply(rep, "miss") {
			return 0, false
		}
		t := mix(c.o.seed, uint64(i)) % uint64(len(coldTemplates))
		if want := c.windowBody[t]; want != nil && !bytes.Equal(rep.body, want) {
			failf("serve-cold body for %d differs from the direct computation", i)
			return 0, false
		}
		c.mu.Lock()
		if c.windowBody[t] == nil && len(c.sampled) < linuxSamples && mix(c.o.seed^0x5eed, uint64(i))%8 == 0 {
			c.sampled[i] = rep.body
		}
		if traced && i < base+replayCount {
			c.served[i] = rep.body
		}
		c.mu.Unlock()
		return 1, true
	})
	if err != nil {
		return nil, err
	}
	// The sampled Linux replies must be byte-identical to the body the
	// `smpsim -json` path computes without HTTP.
	for i, got := range c.sampled {
		want, _, err := directBody(coldRequest(c.o.seed, i))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			failf("serve-cold body for %d differs from the direct computation", i)
			ph.markFailed(i)
		}
	}
	// Every miss is written through to tier 2 (a hedge the gateway
	// launched after a stall may write the same cell once more).
	if c.delta.store.Puts < uint64(ph.cells) {
		failf("%d tier-2 puts for %d cells served", c.delta.store.Puts, ph.cells)
		ph.failAll()
	}
	return ph, nil
}

func (c *coldInst) layers(traced *phase) (map[string]float64, error) {
	vals := zeroLayers()
	c.servingLayers(traced, vals)
	reqs := make([]server.Request, replayCount)
	for k := range reqs {
		reqs[k] = coldRequest(c.o.seed, tracedBase+int64(k))
	}
	rs, err := replayCells(reqs)
	if err != nil {
		return nil, err
	}
	simLayers(rs, vals)
	results := make([]busaware.Result, len(rs))
	for k, r := range rs {
		results[k] = r.res
		body, err := encodeBody(r.res)
		if err != nil {
			return nil, err
		}
		if got, ok := c.served[tracedBase+int64(k)]; ok && !bytes.Equal(got, body) {
			failf("replay of serve-cold cell %d differs from its served body", k)
			traced.markFailed(tracedBase + int64(k))
		}
	}
	if err := probeLayers(c.dir, reqs, results, vals); err != nil {
		return nil, err
	}
	// Backend handler time not spent simulating or encoding, per key.
	handler := map[uint64]float64{}
	for _, s := range c.e.tr.snapshot() {
		if s.Name == spanServer {
			handler[s.Req] = float64(s.dur()) / 1e3
		}
	}
	var overhead []float64
	for k, r := range rs {
		if h, ok := handler[uint64(tracedBase+k)+1]; ok {
			overhead = append(overhead, h-float64(r.runNS)/1e3-vals["server.encode_us"])
		}
	}
	vals["server.overhead_us"] = median(overhead)
	return vals, nil
}

// ---- serve-warm ----

type warmInst struct {
	plane
	reqs   []server.Request
	bodies [][]byte // request bodies
	want   [][]byte // set-up replies
}

// setupWarm starts the plane and loads the working set through the
// gateway, so each key sits in its owner's tier 1.
func setupWarm(o options, dir string, tr *tracer) (instance, error) {
	w := &warmInst{plane: plane{o: o, dir: dir}}
	for k := 0; k < warmSetSize; k++ {
		r := coldRequest(o.seed, int64(k))
		b, _ := json.Marshal(r)
		w.reqs = append(w.reqs, r)
		w.bodies = append(w.bodies, b)
	}
	e, err := newEnv(ownStores(dir), tr)
	if err != nil {
		return nil, err
	}
	w.e = e
	if w.want, err = e.preload(o.clients, w.bodies); err != nil {
		e.close()
		return nil, fmt.Errorf("loading the warm working set: %w", err)
	}
	return w, nil
}

// preload sends each /v1/simulate body through the gateway once, on
// clients goroutines, and returns the replies; each must be a verified
// miss.
func (e *env) preload(clients int, bodies [][]byte) ([][]byte, error) {
	replies := make([][]byte, len(bodies))
	ok := make([]bool, len(bodies))
	forEach(clients, len(bodies), func(k int) {
		rep, err := e.simulate(bodies[k], 0, false)
		if err == nil && checkReply(rep, "miss") {
			replies[k], ok[k] = rep.body, true
		}
	})
	for k, good := range ok {
		if !good {
			return nil, fmt.Errorf("set-up request %d failed", k)
		}
	}
	return replies, nil
}

func (w *warmInst) passCells() int { return warmSetSize }

func (w *warmInst) measure(d time.Duration, traced bool) (*phase, error) {
	return w.drive(d, traced, 0, func(i int64) (int, bool) {
		k := mix(w.o.seed, uint64(i)) % warmSetSize
		rep, err := w.e.simulate(w.bodies[k], uint64(i)+1, traced)
		if err != nil {
			failf("simulate %d: %v", i, err)
			return 0, false
		}
		if !checkReply(rep, "hit") {
			return 0, false
		}
		if !bytes.Equal(rep.body, w.want[k]) {
			failf("serve-warm reply for key %d differs from its set-up body", k)
			return 0, false
		}
		return 1, true
	})
}

func (w *warmInst) layers(traced *phase) (map[string]float64, error) {
	vals := zeroLayers()
	w.servingLayers(traced, vals)
	// Timed direct calls on the working set; its first cells are
	// recomputed for the encode probe and must match their replies.
	const n = 32
	results := make([]busaware.Result, n)
	for k := 0; k < n; k++ {
		body, res, err := directBody(w.reqs[k])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(body, w.want[k]) {
			failf("serve-warm set-up body %d differs from the direct computation", k)
			traced.failAll()
		}
		results[k] = res
	}
	if err := probeLayers(w.dir, w.reqs, results, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// ---- sweep-replay ----

type sweepInst struct {
	plane
	reqs    []server.Request
	results []busaware.Result // the distinct computations
	batches [][]byte          // /v1/sweep bodies, in cyclic order
	want    [][][]byte        // per batch, per line index: expected response
	start   int
	// next is the first operation index of the next phase: phases
	// continue the cyclic order, so a phase never starts on batches
	// the previous one just read into tier 1.
	next int64

	mu        sync.Mutex
	firstLine []float64 // ms, traced phase
}

// setupSweep computes the bandwidth-aware Figure 2 cells without HTTP,
// starts the plane and puts the working set into tier 2, keyed by each
// request's canonical key.
//
// Both backends keep tier 2 in one directory, shared by every set-up
// of a run: the gateway picks each key's owner, and a shared directory
// lets whichever backend owns it find it there. It also means only the
// run's first set-up creates the entries (later ones find them in
// place), which keeps the benchmark's own file churn, and the slower
// file creation it leaves behind on the disk, out of later set-ups and
// runs.
func setupSweep(o options, dir string, tr *tracer) (instance, error) {
	s := &sweepInst{plane: plane{o: o, dir: dir}}
	grid := figure2Grid(false)
	bodies := make([][]byte, len(grid))
	s.results = make([]busaware.Result, len(grid))
	errs := make([]error, len(grid))
	forEach(o.clients, len(grid), func(k int) {
		bodies[k], s.results[k], errs[k] = directBody(grid[k].req)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	reqs, cell := sweepSet(o.seed, sweepSetSize)
	s.reqs = reqs
	shared := filepath.Join(filepath.Dir(dir), "sweep-tier2")
	e, err := newEnv([]string{shared, shared}, tr)
	if err != nil {
		return nil, err
	}
	s.e = e
	for j, r := range reqs {
		key, err := server.CanonicalKey(r)
		if err != nil {
			e.close()
			return nil, err
		}
		for _, b := range e.backends {
			b.st.Put(key, bodies[cell[j]])
		}
	}
	for b := 0; b < sweepSetSize/sweepBatch; b++ {
		part := reqs[b*sweepBatch : (b+1)*sweepBatch]
		body, _ := json.Marshal(server.SweepRequest{Cells: part})
		s.batches = append(s.batches, body)
		var want [][]byte
		for j := range part {
			want = append(want, bytes.TrimSpace(bodies[cell[b*sweepBatch+j]]))
		}
		s.want = append(s.want, want)
	}
	s.start = int(mix(o.seed, 0) % uint64(len(s.batches)))
	return s, nil
}

func (s *sweepInst) passCells() int { return sweepSetSize }

func (s *sweepInst) measure(d time.Duration, traced bool) (*phase, error) {
	s.firstLine = nil
	ph, err := s.drive(d, traced, s.next, func(i int64) (int, bool) {
		b := (s.start + int(i)) % len(s.batches)
		lines, first, err := s.e.sweep(s.batches[b], uint64(i)+1, traced)
		if err != nil {
			failf("sweep %d: %v", i, err)
			return 0, false
		}
		if traced {
			s.mu.Lock()
			s.firstLine = append(s.firstLine, float64(first)/float64(time.Millisecond))
			s.mu.Unlock()
		}
		seen := make([]bool, sweepBatch)
		for _, l := range lines {
			switch {
			case l.Index < 0 || l.Index >= sweepBatch || seen[l.Index]:
				failf("sweep %d: line index %d out of range or repeated", i, l.Index)
				return 0, false
			case l.Status != http.StatusOK || l.Cache != "hit-t2":
				failf("sweep %d line %d: status %d cache %q, want 200 from tier 2 (%s)", i, l.Index, l.Status, l.Cache, l.Error)
				return 0, false
			case l.Digest == "" || !digest.VerifyLine(l.Digest, l.Status, l.Index, l.Response):
				failf("sweep %d line %d: digest does not verify", i, l.Index)
				return 0, false
			case !bytes.Equal(l.Response, s.want[b][l.Index]):
				failf("sweep %d line %d: body differs from the stored body", i, l.Index)
				return 0, false
			}
			seen[l.Index] = true
		}
		if len(lines) != sweepBatch {
			failf("sweep %d: %d lines for %d cells", i, len(lines), sweepBatch)
			return 0, false
		}
		return len(lines), true
	})
	if err != nil {
		return nil, err
	}
	s.next += ph.attempted
	return ph, nil
}

func (s *sweepInst) layers(traced *phase) (map[string]float64, error) {
	vals := zeroLayers()
	s.servingLayers(traced, vals)
	vals["sweep.first_line_ms"] = median(s.firstLine)
	// Backends a client sweep fanned out to: distinct upstream peers
	// under each gateway span.
	peers := map[uint64]map[string]bool{}
	for _, sp := range s.e.tr.snapshot() {
		if sp.Name == spanUpstream {
			if peers[sp.Parent] == nil {
				peers[sp.Parent] = map[string]bool{}
			}
			peers[sp.Parent][sp.Tag] = true
		}
	}
	var fan float64
	for _, ps := range peers {
		fan += float64(len(ps))
	}
	vals["gateway.sweep_fanout"] = ratio(fan, float64(len(peers)))
	if err := probeLayers(s.dir, s.reqs, s.results, vals); err != nil {
		return nil, err
	}
	return vals, nil
}
