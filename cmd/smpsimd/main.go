// Command smpsimd serves the simulator over HTTP: POST /v1/simulate
// runs one workload cell (same grammar and defaults as the smpsim CLI)
// on a shared bounded worker pool, with an exact-key response cache,
// admission control (429 + Retry-After under overload), per-request
// deadlines, a live telemetry stream (GET /v1/timeline: every run's
// per-quantum windows as NDJSON while the run executes), /healthz,
// Prometheus /metrics and graceful drain on SIGTERM/SIGINT.
//
// With -store-dir the response cache gains a persistent tier: every
// computed body is also written to a content-addressed on-disk store
// (crash-safe, verified on read), so a restarted daemon replays its
// whole warm set instead of recomputing it. -store-shared-dir adds a
// fleet-wide tier all backends populate together.
//
// Usage:
//
//	smpsimd -addr :8080 -workers 4 -queue 64 -cache 256 \
//	  -store-dir /var/lib/smpsimd/store -store-max-bytes 1073741824
//
//	curl -s localhost:8080/v1/simulate \
//	  -d '{"apps":"CG x2, BBMA x4","policy":"window"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"busaware/internal/runner"
	"busaware/internal/server"
	"busaware/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2x workers); beyond it requests get 429")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "response cache entries")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline (queue wait included)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight requests")
	simDelay := flag.Duration("simdelay", 0, "artificial per-cell latency, standing in for expensive cells (overload/drain demos)")
	tlQuanta := flag.Int("timeline-window", 0, "telemetry window span in quanta (0 = 64); smaller spans stream /v1/timeline windows sooner")
	tlWindows := flag.Int("timeline-windows", 0, "per-run retained window ring size (0 = 256); older windows fold into the run summary")
	storeDir := flag.String("store-dir", "", "persistent result store directory (tier 2; empty = memory-only caching)")
	storeShared := flag.String("store-shared-dir", "", "shared result store directory all backends populate (tier 3)")
	storeMax := flag.Int64("store-max-bytes", 0, "tier-2 store size bound in bytes, LRU-evicted (0 = unbounded)")
	flag.Parse()

	var st *store.Store
	if *storeDir != "" || *storeShared != "" {
		var err error
		st, err = store.Open(store.Config{Dir: *storeDir, SharedDir: *storeShared, MaxBytes: *storeMax})
		if err != nil {
			fatal(err)
		}
		log.Printf("smpsimd: store open (dir=%q shared=%q max-bytes=%d entries=%d)",
			*storeDir, *storeShared, *storeMax, st.Stats().Disk.Entries)
	}

	s := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		RequestTimeout:  *timeout,
		RetryAfter:      *retryAfter,
		SimDelay:        *simDelay,
		TimelineQuanta:  *tlQuanta,
		TimelineWindows: *tlWindows,
		Store:           st,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	w := runner.Workers(*workers)
	q := *queue
	if q <= 0 {
		q = 2 * w
	}
	log.Printf("smpsimd: listening on %s (workers=%d queue=%d cache=%d timeout=%s)",
		*addr, w, q, *cacheSize, *timeout)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight requests finish
	// within the budget, then release the pool.
	log.Printf("smpsimd: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("smpsimd: drain incomplete: %v", err)
	}
	s.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("smpsimd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smpsimd:", err)
	os.Exit(1)
}
