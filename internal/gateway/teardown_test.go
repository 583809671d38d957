package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"busaware/internal/server"
)

// backendSubscribers reads one backend's live /v1/timeline subscriber
// count through its summary endpoint.
func backendSubscribers(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/timeline?summary=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum server.TimelineSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum.Subscribers
}

// waitBackendSubscribers polls every backend until each reports want
// live streams.
func waitBackendSubscribers(t *testing.T, c *cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, ts := range c.backends {
			if backendSubscribers(t, ts.URL) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, ts := range c.backends {
		t.Logf("backend %d subscribers = %d", i, backendSubscribers(t, ts.URL))
	}
	t.Fatalf("backend subscriber counts never reached %d", want)
}

// TestTimelineMultiplexerTeardown: a client abandoning the gateway's
// merged /v1/timeline stream must promptly tear down the per-backend
// upstream streams it multiplexes — otherwise every abandoned dashboard
// tab pins one relay goroutine and one backend subscription per shard
// for the life of the gateway.
func TestTimelineMultiplexerTeardown(t *testing.T) {
	c := newCluster(t, 2, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.gwts.URL+"/v1/timeline", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway stream status %d", resp.StatusCode)
	}
	// The gateway must have opened one upstream stream per backend.
	waitBackendSubscribers(t, c, 1)

	cancel()
	// Client gone: both upstream subscriptions must be released without
	// any further traffic on the feed.
	waitBackendSubscribers(t, c, 0)
}

// TestTimelineMaxTeardownThroughGateway: a ?max-bounded merged stream
// ends by itself and still tears the upstream streams down.
func TestTimelineMaxTeardownThroughGateway(t *testing.T) {
	// Small telemetry windows so even a short cell seals backlog lines.
	c := newClusterWithServerConfig(t, 2, Config{},
		server.Config{Workers: 2, TimelineQuanta: 8}, nil)
	// Seed backlog on the backends so max=1 is satisfiable.
	resp, _ := post(t, c.gwts.URL, "/v1/simulate", cellBody(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed status %d", resp.StatusCode)
	}

	sresp, err := http.Get(c.gwts.URL + "/v1/timeline?backlog=256&max=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	buf := make([]byte, 1<<20)
	n := 0
	for {
		m, rerr := sresp.Body.Read(buf[n:])
		n += m
		if rerr != nil {
			break
		}
	}
	if n == 0 {
		t.Fatal("no merged lines before max cutoff")
	}
	waitBackendSubscribers(t, c, 0)
}
