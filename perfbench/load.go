package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation of a measured phase, its times
// offsets from the phase start. It is kept small: a phase holds one
// per request, and the harness's own memory shows in rss_peak_mb.
type sample struct {
	idx        int64
	start, end time.Duration
	cells      int32
	ok         bool
}

// phase is one measured stretch of a workload.
type phase struct {
	elapsed time.Duration
	// steal is the share of the CPU time the machine wanted during the
	// phase that its host withheld: the noise floor of the run.
	steal float64
	// rssMB is the process's peak resident set up to the phase's end.
	rssMB float64
	// samples are ordered by completion time.
	samples                  []sample
	attempted, failed, cells int64
}

// newPhase orders the samples and totals them.
func newPhase(samples []sample) *phase {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	p := &phase{samples: samples}
	for _, s := range samples {
		p.attempted++
		if !s.ok {
			p.failed++
			continue
		}
		p.cells += int64(s.cells)
	}
	if n := len(samples); n > 0 {
		p.elapsed = samples[n-1].end
	}
	return p
}

// latenciesMS returns every operation's latency in milliseconds; a
// failed operation reads +Inf, so it counts as missing any limit and
// can never make a percentile faster.
func (p *phase) latenciesMS() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = float64(s.end-s.start) / float64(time.Millisecond)
		}
	}
	return out
}

// percentile is the nearest-rank q-quantile of the latencies in ms.
func (p *phase) percentile(q float64) float64 {
	return quantile(p.latenciesMS(), q)
}

// window is the span over which the serving workloads' rate and
// latency quantiles are computed before taking the median across
// windows, so host noise in a minority of windows does not move the
// run's figures.
const window = 500 * time.Millisecond

// summary is a phase's delivered cells per second and its p50 and p90
// latency in ms. When operations are short enough for a window to hold
// many, each is the median over whole windows (by completion time) of
// that window's figure; otherwise (a figure set) the rate is the median
// over operations of cells per second and the quantiles are taken over
// all operations.
func (p *phase) summary() (rate, p50, p90 float64) {
	lat := p.latenciesMS()
	if quantile(lat, 0.5)*float64(time.Millisecond) >= float64(window)/10 {
		var rates []float64
		for _, s := range p.samples {
			r := 0.0
			if s.ok {
				r = float64(s.cells) / (s.end - s.start).Seconds()
			}
			rates = append(rates, r)
		}
		return median(rates), quantile(lat, 0.5), quantile(lat, 0.9)
	}
	n := int(p.elapsed / window)
	cells := make([]int, n)
	win := make([][]float64, n)
	for i, s := range p.samples {
		k := int(s.end / window)
		if k >= n {
			break
		}
		if s.ok {
			cells[k] += int(s.cells)
		}
		win[k] = append(win[k], lat[i])
	}
	var rates, p50s, p90s []float64
	for k := range win {
		if len(win[k]) > 0 {
			rates = append(rates, float64(cells[k])/window.Seconds())
			p50s = append(p50s, quantile(win[k], 0.5))
			p90s = append(p90s, quantile(win[k], 0.9))
		}
	}
	return median(rates), median(p50s), median(p90s)
}

// closedLoop runs clients goroutines, each sending its next operation
// only after the previous one completed, until d has passed. Operation
// indices start at base and are handed out in order; do reports how
// many cells the operation delivered and whether every check passed.
func closedLoop(clients int, d time.Duration, base int64, do func(i int64) (cells int, ok bool)) *phase {
	var next atomic.Int64
	busy0, steal0 := cpuTicks()
	start := time.Now()
	// Each client logs into fixed-size chunks, so the log never copies
	// itself while the phase runs.
	per := make([][][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var chunk []sample
			for time.Since(start) < d {
				i := base + next.Add(1) - 1
				t0 := time.Since(start)
				cells, ok := do(i)
				if len(chunk) == cap(chunk) {
					chunk = make([]sample, 0, 4096)
					per[c] = append(per[c], chunk)
				}
				chunk = append(chunk, sample{idx: i, start: t0, end: time.Since(start), cells: int32(cells), ok: ok})
				per[c][len(per[c])-1] = chunk
			}
		}(c)
	}
	wg.Wait()
	busy1, steal1 := cpuTicks()
	// Read before the log is merged: the benchmark's own
	// post-processing is not the program's footprint.
	rss := peakRSSMB()
	var all []sample
	for _, chunks := range per {
		for _, chunk := range chunks {
			all = append(all, chunk...)
		}
	}
	p := newPhase(all)
	p.steal = ratio(float64(steal1-steal0), float64(busy1-busy0+steal1-steal0))
	p.rssMB = rss
	return p
}

// cpuTicks reads the machine's busy and steal CPU ticks from
// /proc/stat (zeros where it cannot be read).
func cpuTicks() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]uint64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseUint(f[i], 10, 64)
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// markFailed marks operation idx failed after the fact (a check made
// once the phase ended).
func (p *phase) markFailed(idx int64) {
	for k := range p.samples {
		if s := &p.samples[k]; s.idx == idx && s.ok {
			s.ok = false
			p.failed++
			p.cells -= int64(s.cells)
		}
	}
}

// failAll marks every operation failed: a check on the phase as a
// whole did not hold.
func (p *phase) failAll() {
	for k := range p.samples {
		p.markFailed(p.samples[k].idx)
	}
}

// forEach calls f(i) for i < n on workers goroutines and waits.
func forEach(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// failures reports failed checks on standard error, the first few in
// full, so a broken run says why without flooding the output.
var failures struct {
	mu sync.Mutex
	n  int
}

func failf(format string, args ...any) {
	failures.mu.Lock()
	defer failures.mu.Unlock()
	failures.n++
	if failures.n <= 10 {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}
