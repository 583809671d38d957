// Command smpgw fronts a fleet of smpsimd backends with a
// consistent-hash gateway: requests are sharded by the canonical
// request key (the same identity the backends' response caches use),
// so each backend's cache stays hot for its shard; connection errors
// fail over to the next ring node; and backend 429s are retried after
// honoring Retry-After before being passed through.
//
// The forwarding path is chaos-hardened: each backend's only health
// state is a circuit breaker (consecutive failures, a high windowed
// error rate or a refused dial open it; after a cooldown one trial —
// a request or a /healthz probe — tests recovery, and each failed
// trial doubles the cooldown up to 16×), all
// retries and hedges draw from a global sliding-window retry budget
// (exhaustion fails fast with 503 and X-Retry-Budget: exhausted
// instead of amplifying load), slow attempts are hedged to another
// backend once the tracked p99 delay elapses, and every response body
// is integrity-checked against its X-Content-Digest before being
// forwarded — a corrupt body is retried like a connection error.
//
// Usage:
//
//	smpsimd -addr 127.0.0.1:8081 &
//	smpsimd -addr 127.0.0.1:8082 &
//	smpgw -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
//	curl -s localhost:8080/v1/simulate -d '{"apps":"CG x2, BBMA x4"}'
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
	"strings"
	"syscall"
	"time"

	"busaware/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "", "comma-separated smpsimd base URLs (required)")
	replicas := flag.Int("replicas", 0, "virtual nodes per backend on the hash ring (0 = 128)")
	probe := flag.Duration("probe", 2*time.Second, "backend /healthz probe interval")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	retry429 := flag.Int("retry-429", 2, "times a backend 429 is retried (honoring Retry-After) before passing it through")
	maxRetryAfter := flag.Duration("max-retry-after", 5*time.Second, "cap on one honored Retry-After hint")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight requests")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures tripping a backend's circuit breaker (0 = 5)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-state cooldown before a breaker admits one trial request or probe, doubled per failed trial up to 16x (0 = 2s)")
	retryBudget := flag.Float64("retry-budget", 0, "retries allowed per request over a sliding window (0 = 0.5, negative = unlimited)")
	retryBudgetFloor := flag.Int("retry-budget-floor", 0, "minimum retries always allowed per window regardless of volume (0 = 16)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "per-attempt upstream timeout, the hard bound on a blackholed backend (0 = 15s, negative = unbounded)")
	hedgeDelayMin := flag.Duration("hedge-delay-min", 0, "floor on the hedging delay; actual delay is max(floor, tracked p99) (0 = 250ms, negative = hedging off)")
	flag.Parse()

	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, b)
		}
	}
	g, err := gateway.New(gateway.Config{
		Backends:      addrs,
		Replicas:      *replicas,
		ProbeInterval: *probe,
		ProbeTimeout:  *probeTimeout,
		Retry429:      *retry429,
		MaxRetryAfter: *maxRetryAfter,

		BreakerFailures:  *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		RetryBudgetRatio: *retryBudget,
		RetryBudgetFloor: *retryBudgetFloor,
		AttemptTimeout:   *attemptTimeout,
		HedgeDelayMin:    *hedgeDelayMin,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: g}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("smpgw: listening on %s over %d backends (probe=%s retry429=%d)",
		*addr, len(addrs), *probe, *retry429)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("smpgw: draining (budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("smpgw: drain incomplete: %v", err)
	}
	g.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("smpgw: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smpgw:", err)
	os.Exit(1)
}
