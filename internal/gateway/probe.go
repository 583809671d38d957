package gateway

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// Health probing. The prober is one more kind of attempt on the
// breaker (breaker.go), not a second health state:
//
//   - A probe is admitted through Allow like any request, so an open
//     breaker is re-probed only once its backed-off cooldown elapses —
//     a long-dead backend costs one probe per 16 cooldowns, while a
//     freshly opened one is re-checked after one.
//   - A failed probe is recorded as a failure (a refused dial opens the
//     breaker at once); a successful probe that claimed the half-open
//     trial re-closes it. A successful probe of a closed backend
//     records nothing, so a /healthz that chaos spares cannot hide a
//     run of request failures.
//   - Jitter: each gateway draws its next probe delay uniformly from
//     [0.5, 1.5) × interval, so a fleet of gateways (re)started
//     together does not hammer every backend's /healthz on the same
//     beat forever.

// probeJitter maps one uniform draw u ∈ [0, 1) to a jittered probe
// delay in [0.5, 1.5) × interval.
func probeJitter(interval time.Duration, u float64) time.Duration {
	return time.Duration(float64(interval) * (0.5 + u))
}

// probeLoop drives jittered probe rounds until Close.
func (g *Gateway) probeLoop(interval time.Duration) {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTimer(probeJitter(interval, rng.Float64()))
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.ProbeOnce()
			t.Reset(probeJitter(interval, rng.Float64()))
		}
	}
}

// ProbeOnce runs one probe round over every backend its breaker
// admits. Exported so tests (and operators' debug handlers) can force
// a round without waiting out the interval.
func (g *Gateway) ProbeOnce() {
	for _, b := range g.cluster.Load().backends {
		if !b.breaker.Allow() {
			continue
		}
		trial := !b.breaker.Closed()
		resp, err := g.probec.Get(b.addr + "/healthz")
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("%s: healthz status %d", b.addr, resp.StatusCode)
			}
		}
		if err != nil || trial {
			b.breaker.Record(err)
		}
	}
}
