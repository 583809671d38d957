package experiments

import (
	"fmt"

	"busaware/internal/runner"
	"busaware/internal/sched"
	"busaware/internal/sim"
	"busaware/internal/units"
	"busaware/internal/workload"
)

// The paper's Section 6 names two future directions: testing the
// scheduler "with I/O and network-intensive workloads ... web and
// database servers", and extending it "in the context of
// multithreading processors". Both are implemented here as extension
// experiments.

// ServerRow is one server application's outcome on the mixed
// antagonist set.
type ServerRow struct {
	App             string
	LinuxTurnaround units.Time
	LQTurnaround    units.Time
	QWTurnaround    units.Time
	LQImprovement   float64
	QWImprovement   float64
}

// ServerWorkloads runs the web-server and database profiles through
// the mixed antagonist set, exactly like a Figure 2C panel. Both
// profiles' cells fan out through the runner as one batch.
func ServerWorkloads(opt Options) ([]ServerRow, error) {
	profiles := workload.ServerProfiles()
	var cells []runner.Cell
	for _, p := range profiles {
		cells = append(cells, figure2Cells(SetMixed, opt, p)...)
	}
	results, err := opt.runCells("servers", cells)
	if err != nil {
		return nil, err
	}
	per := len(opt.seeds()) + 2
	var rows []ServerRow
	for i, p := range profiles {
		f2, err := figure2Row(SetMixed, opt, p, results[i*per:(i+1)*per])
		if err != nil {
			return nil, err
		}
		rows = append(rows, ServerRow{
			App:             p.Name,
			LinuxTurnaround: f2.LinuxTurnaround,
			LQTurnaround:    f2.LQTurnaround,
			QWTurnaround:    f2.QWTurnaround,
			LQImprovement:   f2.LQImprovement,
			QWImprovement:   f2.QWImprovement,
		})
	}
	return rows, nil
}

// SMTRow compares one scheduling policy with hyperthreading off
// (4 logical = 4 physical processors, the paper's configuration)
// versus on (8 logical processors over 4 cores).
type SMTRow struct {
	Policy string
	// SMTOff and SMTOn are mean turnarounds of the BT mixed workload.
	SMTOff units.Time
	SMTOn  units.Time
	// SpeedupPercent is the throughput gained (or lost) by enabling
	// hyperthreading under this policy.
	SpeedupPercent float64
}

// SMTStudy measures how the policies exploit hyperthreading — the
// paper's "multithreading processors" future-work direction. The
// workload doubles with the logical processor count so both machines
// run at multiprogramming degree 2.
func SMTStudy(opt Options) ([]SMTRow, error) {
	bt, ok := workload.ByName("BT")
	if !ok {
		return nil, fmt.Errorf("experiments: BT missing from registry")
	}
	build := func(scale int) []*workload.App {
		apps := workload.Instances(bt, 2*scale)
		for i := 0; i < 2*scale; i++ {
			apps = append(apps, workload.NewApp(workload.BBMA(), fmt.Sprintf("B#%d", i+1)))
		}
		for i := 0; i < 2*scale; i++ {
			apps = append(apps, workload.NewApp(workload.NBBMA(), fmt.Sprintf("n#%d", i+1)))
		}
		return apps
	}

	off := opt.machine() // 4 CPUs, SMT off
	on := opt.machine()
	on.NumCPUs = off.NumCPUs * 2
	on.SMTSiblings = 2

	mkPolicy := func(name string, m sim.Config, ncpu int) (sched.Scheduler, error) {
		switch name {
		case "Linux":
			return sched.NewLinux(ncpu, 1), nil
		case "QuantaWindow":
			return sched.NewQuantaWindow(ncpu, m.Machine.Bus.Capacity, opt.PolicyOpts...), nil
		default:
			return nil, fmt.Errorf("experiments: unknown SMT policy %q", name)
		}
	}

	policies := []string{"Linux", "QuantaWindow"}
	var cells []runner.Cell
	for _, name := range policies {
		name := name
		offCfg := sim.Config{Machine: off, Sampling: opt.Sampling}
		onCfg := sim.Config{Machine: on, Sampling: opt.Sampling}
		mkOff := func() (sched.Scheduler, error) { return mkPolicy(name, offCfg, off.NumCPUs) }
		mkOn := func() (sched.Scheduler, error) { return mkPolicy(name, onCfg, on.NumCPUs) }
		if _, err := mkOff(); err != nil {
			return nil, err
		}
		cells = append(cells,
			runner.Cell{Label: "smt/" + name + "/off", Config: offCfg, NewScheduler: mkOff, Apps: build(1)},
			runner.Cell{Label: "smt/" + name + "/on", Config: onCfg, NewScheduler: mkOn, Apps: build(2)})
	}
	results, err := opt.runCells("smt", cells)
	if err != nil {
		return nil, err
	}
	var rows []SMTRow
	for i, name := range policies {
		resOff, resOn := results[i*2], results[i*2+1]
		if resOff.TimedOut || resOn.TimedOut {
			return nil, fmt.Errorf("experiments: SMT run timed out under %s", name)
		}
		row := SMTRow{
			Policy: name,
			SMTOff: resOff.MeanTurnaround(),
			SMTOn:  resOn.MeanTurnaround(),
		}
		// With twice the work and the same cores, finishing in under
		// 2x the time is an SMT win. Normalize per unit of work.
		offPerWork := float64(resOff.MeanTurnaround())
		onPerWork := float64(resOn.MeanTurnaround()) / 2
		if offPerWork > 0 {
			row.SpeedupPercent = (offPerWork - onPerWork) / offPerWork * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}
