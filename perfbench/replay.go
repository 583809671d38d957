package main

import (
	"fmt"
	"time"

	"busaware"
	"busaware/internal/machine"
	"busaware/internal/sched"
	"busaware/internal/server"
	"busaware/internal/units"
)

// timedSched decorates a scheduler and times every Schedule call.
//
// The simulator sizes each job's sample window from the concrete
// *sched.BandwidthAware it is handed, so behind a decorator it would
// build one-sample windows and Quanta Window would silently turn into
// Latest Quantum. For a policy with a longer window (or an EWMA) the
// decorator therefore hands the policy jobs of its own, sized the way
// the simulator sizes them, and forwards each sample the simulator
// pushes into its job before the next Schedule call. The replay check
// (same quanta, end time and bus utilization as the undecorated run)
// proves the decorated run is the same computation. Fault-injected
// cells are not replayed: a crash resets the simulator's job, which
// the forwarding cannot see.
type timedSched struct {
	inner sched.Scheduler
	// jobs maps the simulator's jobs to the policy's own, when the
	// policy needs them re-windowed (nil otherwise); window and alpha
	// size those jobs as the simulator would.
	jobs   map[*sched.Job]*sched.Job
	window int
	alpha  float64

	ns, calls int64
}

func newTimedSched(inner sched.Scheduler) *timedSched {
	d := &timedSched{inner: inner}
	if ba, ok := inner.(*sched.BandwidthAware); ok && (ba.WindowLen() > 1 || ba.Estimator() == sched.EstEWMA) {
		d.jobs = map[*sched.Job]*sched.Job{}
		d.window = ba.WindowLen()
		if ba.Estimator() == sched.EstEWMA {
			d.alpha = 0.4 // the simulator's EWMA weight for EWMA policies
		}
	}
	return d
}

func (d *timedSched) Name() string        { return d.inner.Name() }
func (d *timedSched) Quantum() units.Time { return d.inner.Quantum() }

func (d *timedSched) Add(j *sched.Job) {
	if d.jobs == nil {
		d.inner.Add(j)
		return
	}
	own := sched.NewJob(j.App, d.window, d.alpha)
	d.jobs[j] = own
	d.inner.Add(own)
}

func (d *timedSched) Remove(j *sched.Job) {
	if d.jobs == nil {
		d.inner.Remove(j)
		return
	}
	d.inner.Remove(d.jobs[j])
	delete(d.jobs, j)
}

func (d *timedSched) Schedule(now units.Time, aff sched.Affinity) []machine.Placement {
	for j, own := range d.jobs {
		if j.Samples() > 0 {
			own.PushSample(j.LatestRate())
			j.ResetSamples()
		}
	}
	t0 := time.Now()
	p := d.inner.Schedule(now, aff)
	d.ns += int64(time.Since(t0))
	d.calls++
	return p
}

// replayed is one cell replayed three ways.
type replayed struct {
	req server.Request
	res busaware.Result
	// runNS times the plain run; tracedNS the decorated one, of which
	// schedNS was spent in calls Schedule calls.
	runNS, tracedNS, schedNS, calls int64
	// leapt counts the quanta the event engine leapt on the cell.
	leapt int
}

// replayCells runs each request's cell serially, three times: plainly
// and behind the timing decorator, both through busaware.RunWithTimeline
// (quantum engine, timeline collector attached, as the server runs
// cells), then on the event engine through busaware.RunEngine for its
// leap count. All three must agree on the result.
func replayCells(reqs []server.Request) ([]replayed, error) {
	m := busaware.PaperMachine()
	out := make([]replayed, 0, len(reqs))
	for _, r := range reqs {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		var rp replayed
		var results [3]busaware.Result
		for k := range results {
			apps, err := busaware.ParseApps(r.Apps)
			if err != nil {
				return nil, err
			}
			s, err := busaware.NewScheduler(r.Policy, m, seed)
			if err != nil {
				return nil, err
			}
			col, err := busaware.NewTimelineCollector(busaware.TimelineConfig{})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			switch k {
			case 0:
				results[k], err = busaware.RunWithTimeline(m, s, apps, col)
				rp.runNS = int64(time.Since(t0))
			case 1:
				ts := newTimedSched(s)
				results[k], err = busaware.RunWithTimeline(m, ts, apps, col)
				rp.tracedNS, rp.schedNS, rp.calls = int64(time.Since(t0)), ts.ns, ts.calls
			case 2:
				results[k], err = busaware.RunEngine(busaware.EngineEvent, m, s, nil, apps)
				rp.leapt = results[k].LeaptQuanta
			}
			if err != nil {
				return nil, fmt.Errorf("replay %s/%s: %w", r.Apps, r.Policy, err)
			}
		}
		for _, x := range results[1:] {
			if x.Quanta != results[0].Quanta || x.EndTime != results[0].EndTime || x.MeanBusUtilization != results[0].MeanBusUtilization {
				return nil, fmt.Errorf("replays of %s/%s disagree", r.Apps, r.Policy)
			}
		}
		rp.req, rp.res = r, results[0]
		out = append(out, rp)
	}
	return out, nil
}

// simLayers turns replays into the sim and sched per-layer metrics.
// sim.run_us is the plain run time per cell; sim.step_us_per_quantum
// the decorated run time not spent in Schedule, per quantum; and
// bench.sim_sum_ratio is Schedule time plus step x quanta over the
// plain run time: the decorated accounting against the undecorated
// cost.
func simLayers(rs []replayed, vals map[string]float64) {
	schedNS := map[string]int64{}
	calls := map[string]int64{}
	var runNS, tracedNS, sumSched, quanta, allCalls int64
	var leapt int
	for _, r := range rs {
		schedNS[r.req.Policy] += r.schedNS
		calls[r.req.Policy] += r.calls
		runNS += r.runNS
		tracedNS += r.tracedNS
		sumSched += r.schedNS
		quanta += int64(r.res.Quanta)
		allCalls += r.calls
		leapt += r.leapt
	}
	for _, p := range []string{"linux", "window", "latest"} {
		vals["sched.schedule_ns."+p] = ratio(float64(schedNS[p]), float64(calls[p]))
	}
	stepNS := ratio(float64(tracedNS-sumSched), float64(quanta))
	vals["sched.calls"] = float64(allCalls)
	vals["sim.quanta"] = float64(quanta)
	vals["sim.run_us"] = ratio(float64(runNS)/1e3, float64(len(rs)))
	vals["sim.step_us_per_quantum"] = stepNS / 1e3
	vals["bench.sim_sum_ratio"] = ratio(float64(sumSched)+stepNS*float64(quanta), float64(runNS))
	vals["sim.leap_fraction"] = ratio(float64(leapt), float64(quanta))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
