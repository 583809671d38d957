package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"busaware/internal/server"
	"busaware/internal/timeline"
)

// TestTimelineSummaryAcrossBackends runs distinct cells so each
// backend hosts different runs, then checks the gateway's merged
// summary covers exactly the union: total quanta equals the sum of the
// per-backend summaries, and the fold is the Merge of the parts —
// which associativity makes independent of backend order.
func TestTimelineSummaryAcrossBackends(t *testing.T) {
	c := newCluster(t, 2, Config{})

	// Enough distinct cells that consistent hashing puts runs on both
	// backends (the affinity test demonstrates the spread). 24 seeds
	// keep the all-one-backend probability negligible — the split
	// depends on the backends' random httptest ports.
	for seed := 0; seed < 24; seed++ {
		resp, b := post(t, c.gwts.URL, "/v1/simulate", cellBody(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %d: status %d body %s", seed, resp.StatusCode, b)
		}
	}

	resp, err := http.Get(c.gwts.URL + "/v1/timeline?summary=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary status = %d", resp.StatusCode)
	}
	var merged TimelineSummary
	if err := json.NewDecoder(resp.Body).Decode(&merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Backends) != 2 {
		t.Fatalf("backends reported = %d, want 2", len(merged.Backends))
	}

	var fold timeline.Window
	var windows int64
	contributing := 0
	for _, b := range merged.Backends {
		if !b.Healthy {
			t.Errorf("backend %s reported unhealthy", b.Addr)
		}
		if b.Summary.Quanta > 0 {
			contributing++
		}
		fold = timeline.Merge(fold, b.Summary)
		windows += b.Windows
	}
	if contributing < 2 {
		t.Fatalf("only %d backend(s) ran cells; sharding should spread 8 distinct cells", contributing)
	}
	if !reflect.DeepEqual(merged.Summary, fold) {
		t.Errorf("gateway summary is not the exact merge of its parts:\n got %+v\nfold %+v", merged.Summary, fold)
	}
	if merged.Windows != windows {
		t.Errorf("window count %d != sum of backends %d", merged.Windows, windows)
	}
	if merged.Summary.Quanta == 0 {
		t.Error("merged summary is empty after 8 runs")
	}
}

// TestTimelineStreamStampsBackends replays both backends' backlogs
// through the merged stream and checks every line carries the origin
// backend, with events from more than one origin present.
func TestTimelineStreamStampsBackends(t *testing.T) {
	c := newCluster(t, 2, Config{})

	// 24 distinct cells: with the backends on random httptest ports,
	// 8 occasionally all hashed to one shard and flaked the
	// both-origins assertion below.
	for seed := 0; seed < 24; seed++ {
		post(t, c.gwts.URL, "/v1/simulate", cellBody(seed))
	}

	// Size ?max to the full replay: one backend's backlog alone cannot
	// satisfy it, so both origins must appear.
	total := 0
	for _, ts := range c.backends {
		resp, err := http.Get(ts.URL + "/v1/timeline?summary=1")
		if err != nil {
			t.Fatal(err)
		}
		var sum server.TimelineSummary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sum.Windows == 0 {
			t.Fatalf("backend %s sealed no windows; sharding should spread 8 distinct cells", ts.URL)
		}
		total += int(sum.Windows)
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/timeline?max=%d", c.gwts.URL, total))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	valid := map[string]bool{}
	for _, ts := range c.backends {
		valid[ts.URL] = true
	}
	origins := map[string]int{}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.TimelineEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if !valid[ev.Backend] {
			t.Fatalf("event stamped with unknown backend %q", ev.Backend)
		}
		origins[ev.Backend]++
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("got %d lines, want %d (?max)", n, total)
	}
	if len(origins) < 2 {
		t.Errorf("merged stream shows %d origin(s), want both backends: %v", len(origins), origins)
	}
}

// TestTimelineNoHealthyBackends pins the degraded-path behavior for
// both modes.
func TestTimelineNoHealthyBackends(t *testing.T) {
	c := newCluster(t, 1, Config{})
	c.backends[0].Close()
	c.servers[0].Close()
	c.gw.ProbeOnce()

	for _, q := range []string{"", "?summary=1"} {
		resp, err := http.Get(c.gwts.URL + "/v1/timeline" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("GET /v1/timeline%s status = %d, want 502", q, resp.StatusCode)
		}
	}
}

// TestTimelineMethodAndParams covers the gateway endpoint's error
// surface.
func TestTimelineMethodAndParams(t *testing.T) {
	c := newCluster(t, 1, Config{})

	resp, _ := post(t, c.gwts.URL, "/v1/timeline", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	for _, q := range []string{"?max=-2", "?backlog=zz"} {
		resp, err := http.Get(c.gwts.URL + "/v1/timeline" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", q, resp.StatusCode)
		}
	}
}
