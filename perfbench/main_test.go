package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"busaware/internal/server"
)

// requestDigest fingerprints a request list.
func requestDigest(reqs []server.Request) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range reqs {
		enc.Encode(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInputsArePureFunctionsOfSeed: the same seed gives the same
// request lists, and two seeds never share a serve-cold key.
func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	cold := func(seed int64) []server.Request {
		var reqs []server.Request
		for i := int64(0); i < 500; i++ {
			reqs = append(reqs, coldRequest(seed, i), coldRequest(seed, tracedBase+i))
		}
		return reqs
	}
	if requestDigest(cold(7)) != requestDigest(cold(7)) {
		t.Error("serve-cold requests differ between two generations from one seed")
	}
	a, _ := sweepSet(7, sweepSetSize)
	b, _ := sweepSet(7, sweepSetSize)
	if requestDigest(a) != requestDigest(b) {
		t.Error("sweep-replay working set differs between two generations from one seed")
	}
	keys := map[string]bool{}
	for _, r := range cold(1) {
		k, err := server.CanonicalKey(r)
		if err != nil {
			t.Fatal(err)
		}
		if keys[k] {
			t.Fatalf("seed 1 repeats key %s", k)
		}
		keys[k] = true
	}
	for _, r := range cold(2) {
		k, _ := server.CanonicalKey(r)
		if keys[k] {
			t.Fatalf("seeds 1 and 2 share key %s", k)
		}
	}
}

// TestCountsRepeat: the deterministic per-layer counts of a traced run
// repeat exactly across two runs on one seed.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced runs per workload")
	}
	counts := []string{"sim.quanta", "sched.calls", "sim.leap_fraction", "runner.cells", "store.puts"}
	for _, w := range []string{"figures", "serve-cold"} {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			res, err := run(options{root: "..", workload: w, seed: 3, seconds: 2, trace: true, clients: 2}, workloads[w])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s: traced run failed %d of %d checks", w, res.Failed, res.Attempted)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, c := range counts {
				if res.Metrics[c] != first[c] {
					t.Errorf("%s: %s = %v, then %v", w, c, first[c].Value, res.Metrics[c].Value)
				}
			}
		}
		if first["sim.quanta"].Value == 0 {
			t.Errorf("%s: no quanta replayed", w)
		}
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json declares exactly the
// workloads and metrics the benchmark runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("workloads %v, benchmark runs %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: declared %+v, printed %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelfTimes: a span's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if got := self["p"][0]; got != 0.04 { // 100 - (50 + 10) ns, in us
		t.Errorf("self time %v us, want 0.04", got)
	}
}
