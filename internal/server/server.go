// Package server is the simulation-as-a-service front end: a
// JSON-over-HTTP API that runs workload cells on a shared bounded
// runner pool and serves their results with the disciplines of a real
// inference server — bounded admission with backpressure (429 +
// Retry-After instead of unbounded queueing), per-request deadlines
// via context, an exact-key LRU cache over canonicalized requests
// (identical request ⇒ byte-identical body), health and Prometheus
// metrics endpoints, and graceful drain.
//
// The request shape matches the system: the paper's evaluation is a
// grid of independent, deterministic cells, so every response is a
// pure function of its canonical request and caching whole bodies is
// sound. Endpoints:
//
//	POST /v1/simulate  — run (or replay) one cell; see Request/Response
//	POST /v1/sweep     — run a batch of cells, streaming NDJSON lines
//	                     in completion order (see sweep.go)
//	GET  /healthz      — liveness plus queue/pool/cache gauges
//	GET  /metrics      — Prometheus text exposition
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"busaware/internal/digest"
	"busaware/internal/runner"
	"busaware/internal/sim"
	"busaware/internal/store"
	"busaware/internal/trace"
)

// Config sizes the server. The zero value is serviceable: GOMAXPROCS
// workers, a 2x-workers admission queue, the default cache, a 60s
// request deadline and a 1s Retry-After hint.
type Config struct {
	// Workers bounds the simulation pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-not-running requests
	// (0 = 2x workers). Beyond it the server sheds with 429.
	QueueDepth int
	// CacheSize bounds the response cache (0 = DefaultCacheSize).
	CacheSize int
	// RequestTimeout is the per-request deadline, queue wait included
	// (0 = 60s). Expiry yields 504.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses
	// (0 = 1s).
	RetryAfter time.Duration
	// SimDelay adds an artificial latency to every cell before the
	// simulator runs (0 = none). Real cells simulate in single-digit
	// milliseconds, too fast for overload to be observable on small
	// machines; a deliberate delay stands in for expensive cells so
	// backpressure and drain behaviour can be demonstrated
	// deterministically (the CI overload smoke and smpload demos).
	SimDelay time.Duration
	// TimelineQuanta is the per-run telemetry window span in quanta
	// (0 = timeline.DefaultQuantaPerWindow). Smaller windows stream
	// sooner; the CI smoke uses a small span so even short cells seal
	// windows mid-run.
	TimelineQuanta int
	// TimelineWindows bounds each run's retained window ring (0 = 256).
	// Older windows fold into the run summary, keeping memory bounded
	// at millions of quanta.
	TimelineWindows int
	// Store is the persistent result store behind the in-memory cache
	// (nil = memory only). A miss on the in-process LRU falls through
	// to the store's disk and shared tiers before computing, and every
	// freshly rendered body is written through to all tiers, so warm
	// state survives restarts and is shareable across backends.
	Store *store.Store
}

// Server handles the simulation API. Create with New, serve via
// http.Server, and Close when done to release the pool.
type Server struct {
	cfg     Config
	pool    *runner.Pool
	cache   *respCache
	store   *store.Store
	metrics *metrics
	feed    *timelineFeed
	mux     *http.ServeMux

	// testRunHook, when non-nil, runs inside every simulation cell
	// before the simulator starts — the test seam for holding workers
	// busy to exercise backpressure and deadlines.
	testRunHook func()
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:     cfg,
		pool:    runner.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   newRespCache(cfg.CacheSize),
		store:   cfg.Store,
		metrics: newMetrics(),
		feed:    newTimelineFeed(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/timeline", s.handleTimeline)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops admissions and waits for cells already admitted to
// finish. Call after http.Server.Shutdown has stopped new connections;
// together they are the SIGTERM drain path.
func (s *Server) Close() { s.pool.Close() }

// CacheStats exposes the response-cache counters (for healthz, tests
// and the load driver's sanity checks).
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// StoreStats exposes the persistent store's per-tier counters (zero
// when no store is configured).
func (s *Server) StoreStats() store.Stats { return s.store.Stats() }

// maxBodyBytes caps request bodies; specs are short strings, so 1 MiB
// is generous.
const maxBodyBytes = 1 << 20

// errorBody is the JSON error envelope for every non-200.
func (s *Server) error(w http.ResponseWriter, started time.Time, code int, msg string) {
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
	s.metrics.observe(code, time.Since(started))
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.error(w, started, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.error(w, started, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	c, err := compile(req)
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return
	}
	deadline, err := ParseDeadline(r.Header)
	if err != nil {
		s.error(w, started, http.StatusBadRequest, err.Error())
		return
	}

	// Admission-time deadline shed: if the propagated deadline has
	// already passed, the requester provably gave up — don't spend a
	// cache lookup or a pool slot writing to nobody.
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.metrics.observeDeadlineShed("admission")
		s.error(w, started, http.StatusGatewayTimeout, "deadline already expired")
		return
	}

	// Exact-key cache: a hit replays the byte-identical body computed
	// for the first occurrence of this canonical request.
	if body, ok := s.cache.get(c.Key); ok {
		s.write(w, started, body, "hit")
		return
	}

	// Persistent tiers: a body computed before the last restart (tier
	// 2) or by any backend in the fleet (tier 3) is verified, promoted
	// into the memory cache, and replayed without touching the pool.
	if body, tier, ok := s.store.Get(c.Key); ok {
		s.cache.put(c.Key, body)
		s.write(w, started, body, "hit-t"+tier.String())
		return
	}

	// Admission: refuse rather than queue without bound. The client is
	// told when to come back; smpload counts these as shed, not failed.
	out, ok := s.submit(c, deadline)
	if !ok {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.error(w, started, http.StatusTooManyRequests, "simulation queue full")
		return
	}

	// The deadline covers queue wait plus execution; the client closing
	// its connection cancels too. A worker finishing after we gave up
	// still delivers into the buffered channel, and the work is not
	// wasted: a salvage goroutine renders the late result into the
	// response cache, so the retry the 504/Retry-After told the client
	// to make is a hit, not a recompute.
	timeout := s.cfg.RequestTimeout
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < timeout {
			timeout = until
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	select {
	case <-ctx.Done():
		go s.salvage(c, out)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.error(w, started, http.StatusGatewayTimeout, "deadline exceeded")
		} else {
			// Client went away; nothing to write, but account for it.
			s.metrics.observe(499, time.Since(started))
		}
		return
	case res := <-out:
		if errors.Is(res.Err, errDeadlineShed) {
			s.error(w, started, http.StatusGatewayTimeout, res.Err.Error())
			return
		}
		body, err := renderBody(c, res)
		if err != nil {
			s.error(w, started, http.StatusInternalServerError, err.Error())
			return
		}
		s.cachePut(c.Key, body)
		s.write(w, started, body, "miss")
	}
}

// cachePut installs a freshly computed body in the memory cache and
// writes it through to every persistent tier, so the computation
// survives a restart and (with a shared tier) warms the whole fleet.
func (s *Server) cachePut(key string, body []byte) {
	s.cache.put(key, body)
	s.store.Put(key, body)
}

// renderBody converts a finished cell into the exact wire bytes the
// cache stores and every replay serves. The telemetry collector rides
// on every run for the live feed, but windows enter the body — and so
// the cache — only when the request opted in, and the key encodes that
// choice, so replays stay byte-identical either way.
func renderBody(c *compiled, res runner.PoolResult) ([]byte, error) {
	if res.Err != nil {
		return nil, res.Err
	}
	col := c.collector
	if !c.Timeline {
		col = nil
	}
	resp, err := NewResponse(res.Result, c.chromeTrace, col)
	if err != nil {
		return nil, err
	}
	return resp.MarshalBody()
}

// salvage waits for a cell whose requester gave up (deadline or
// disconnect) and populates the response cache with the result, so the
// computation is spent once even when its first requester never saw
// it.
func (s *Server) salvage(c *compiled, out <-chan runner.PoolResult) {
	res := <-out
	body, err := renderBody(c, res)
	if err != nil {
		return
	}
	s.cachePut(c.Key, body)
	s.metrics.observeLateCached()
}

// submit offers the compiled request to the pool as one runner cell.
// Every run records telemetry into its own bounded collector — not
// just opted-in ones — so the live /v1/timeline feed sees all traffic;
// recording is allocation-free per quantum, so this costs nothing the
// bench gate would notice. A non-zero deadline is re-checked at
// dequeue: a cell that aged out waiting in the queue is shed instead
// of computed.
func (s *Server) submit(c *compiled, deadline time.Time) (<-chan runner.PoolResult, bool) {
	if c.Trace {
		c.chromeTrace = &trace.Timeline{NumCPUs: c.Config.Machine.NumCPUs}
		c.Config.Trace = c.chromeTrace
	}
	c.collector = s.newRunCollector(c.Key)
	c.Config.Timeline = c.collector
	cell := runner.Cell{
		Label:     c.Key,
		Config:    c.Config,
		Scheduler: c.Scheduler,
		Apps:      c.Apps,
	}
	if hook, delay := s.testRunHook, s.cfg.SimDelay; hook != nil || delay > 0 || !deadline.IsZero() {
		cfg, sched, apps := cell.Config, cell.Scheduler, cell.Apps
		cell.Run = func() (sim.Result, error) {
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				s.metrics.observeDeadlineShed("dequeue")
				return sim.Result{}, errDeadlineShed
			}
			if hook != nil {
				hook()
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			return sim.Run(cfg, sched, apps)
		}
	}
	return s.pool.TrySubmit(cell)
}

// write sends a 200 with the exact cached/rendered body bytes, stamped
// with their integrity digest so every hop downstream can prove the
// bytes arrived intact.
func (s *Server) write(w http.ResponseWriter, started time.Time, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set(digest.Header, digest.Sum(body))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	s.metrics.observe(http.StatusOK, time.Since(started))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	cs := s.cache.stats()
	ss := s.store.Stats()
	body, _ := json.Marshal(struct {
		Status       string `json:"status"`
		QueueDepth   int    `json:"queue_depth"`
		QueueCap     int    `json:"queue_capacity"`
		Workers      int    `json:"workers"`
		Busy         int    `json:"busy"`
		Completed    int64  `json:"completed"`
		CacheSize    int    `json:"cache_entries"`
		CacheHits    uint64 `json:"cache_hits"`
		StoreEntries int    `json:"store_entries"`
		StoreHits    uint64 `json:"store_hits"`
	}{
		Status:       "ok",
		QueueDepth:   s.pool.QueueDepth(),
		QueueCap:     s.pool.QueueCap(),
		Workers:      s.pool.Workers(),
		Busy:         s.pool.Busy(),
		Completed:    s.pool.Completed(),
		CacheSize:    cs.Entries,
		CacheHits:    cs.Hits,
		StoreEntries: ss.Disk.Entries,
		StoreHits:    ss.Disk.Hits + ss.Shared.Hits,
	})
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s)
}
