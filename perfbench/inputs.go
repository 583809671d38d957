package main

import (
	"fmt"
	"math/rand"

	"busaware/internal/experiments"
	"busaware/internal/server"
	"busaware/internal/workload"
)

// Every input the program receives is generated here as a pure
// function of the benchmark's seed (and an operation index), so the
// same seed gives the same requests and two seeds never share a key.

// mix is the splitmix64 finalizer over (seed, i): a bijection, so
// distinct (seed, i) pairs below 2^31 x 2^32 give distinct draws.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)<<32 ^ i + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// requestSeed is the request's seed field for operation i: the
// benchmark seed in the high half, so every operation of every seed
// has its own canonical key. Only the Linux baseline's runqueue
// shuffle reads it; bandwidth-aware policies compute the same result
// for any seed.
func requestSeed(seed, i int64) int64 { return seed<<32 | (i + 1) }

// coldTemplates is the serve-cold mix: a saturated and an unsaturated
// set under Quanta Window, plus the saturated set under the Linux
// baseline.
var coldTemplates = []server.Request{
	{Apps: "CG x2, BBMA x4", Policy: "window"},
	{Apps: "Raytrace x2, nBBMA x4", Policy: "window"},
	{Apps: "CG x2, BBMA x4", Policy: "linux"},
}

// coldRequest is operation i of the serve-cold stream (and, for i
// below warmSetSize, the serve-warm working set).
func coldRequest(seed, i int64) server.Request {
	r := coldTemplates[mix(seed, uint64(i))%uint64(len(coldTemplates))]
	r.Seed = requestSeed(seed, i)
	return r
}

// gridCell is one cell of the paper's Figure 2 grid: an application
// pair plus four antagonists under one policy.
type gridCell struct {
	label string // the experiments runner's label for the same cell
	req   server.Request
}

// figure1Grid lists the Figure 1 cells: each application solo, paired,
// and with two BBMA or two nBBMA copies, under gang first-fit on a
// dedicated machine, labelled as experiments.Figure1 labels them.
func figure1Grid() []gridCell {
	var cells []gridCell
	for _, p := range workload.PaperApps() {
		for _, c := range []struct{ cfg, spec string }{
			{"solo", p.Name},
			{"2apps", p.Name + " x2"},
			{"2bbma", p.Name + ", BBMA x2"},
			{"2nbbma", p.Name + ", nBBMA x2"},
		} {
			cells = append(cells, gridCell{
				label: fmt.Sprintf("fig1/%s/%s", p.Name, c.cfg),
				req:   server.Request{Apps: c.spec, Policy: "gang"},
			})
		}
	}
	return cells
}

// figure2Grid lists the Figure 2 cells (panels A, B and C) in the
// order experiments.Figure2 submits them, labelled as it labels them.
// linux selects whether the per-seed Linux baselines are included.
func figure2Grid(linux bool) []gridCell {
	sets := []struct {
		set  experiments.WorkloadSet
		tail string
	}{
		{experiments.SetBBMA, "BBMA x4"},
		{experiments.SetNBBMA, "nBBMA x4"},
		{experiments.SetMixed, "BBMA x2, nBBMA x2"},
	}
	var cells []gridCell
	for _, s := range sets {
		for _, p := range workload.PaperApps() {
			spec := fmt.Sprintf("%s x2, %s", p.Name, s.tail)
			if linux {
				for _, seed := range experiments.DefaultLinuxSeeds {
					cells = append(cells, gridCell{
						label: fmt.Sprintf("linux/%s/%s/seed%d", p.Name, s.set, seed),
						req:   server.Request{Apps: spec, Policy: "linux", Seed: seed},
					})
				}
			}
			cells = append(cells,
				gridCell{fmt.Sprintf("LQ/%s/%s", p.Name, s.set), server.Request{Apps: spec, Policy: "latest"}},
				gridCell{fmt.Sprintf("QW/%s/%s", p.Name, s.set), server.Request{Apps: spec, Policy: "window"}})
		}
	}
	return cells
}

// sweepSet is the sweep-replay working set: n requests cycling over
// the bandwidth-aware Figure 2 cells, each with its own seed (so its
// own key), listed in a seeded random order. cell[j] indexes the
// distinct computation request j shares its body with.
func sweepSet(seed int64, n int) (reqs []server.Request, cell []int) {
	grid := figure2Grid(false)
	for j := 0; j < n; j++ {
		r := grid[j%len(grid)].req
		r.Seed = requestSeed(seed, int64(j))
		reqs = append(reqs, r)
		cell = append(cell, j%len(grid))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(a, b int) {
		reqs[a], reqs[b] = reqs[b], reqs[a]
		cell[a], cell[b] = cell[b], cell[a]
	})
	return reqs, cell
}
