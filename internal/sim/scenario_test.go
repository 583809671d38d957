package sim

import (
	"fmt"
	"strings"
	"testing"

	"busaware/internal/scenario"
	"busaware/internal/sched"
	"busaware/internal/units"
	"busaware/internal/workload"
)

func churn(t *testing.T, pattern, pool string, seed int64) *scenario.Schedule {
	t.Helper()
	s, err := scenario.Materialize(scenario.ChurnSpec{Pattern: pattern, Pool: pool, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScenarioChurnCounters(t *testing.T) {
	// Two CG instances churn in at t=0 and depart at 2s; CG needs 13
	// solo seconds, so neither completes. The base app is untouched.
	sched4 := sched.NewGang(4)
	base := workload.NewApp(profile(t, "Volrend"), "V#1")
	res, err := Run(Config{
		Scenario: churn(t, "step:2s@2; step:2s@0", "CG", 1),
	}, sched4, []*workload.App{base})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenarioArrivals != 2 {
		t.Errorf("arrivals = %d, want 2", res.ScenarioArrivals)
	}
	if res.ScenarioDepartures != 2 {
		t.Errorf("departures = %d, want 2", res.ScenarioDepartures)
	}
	if res.ScenarioCompleted != 0 {
		t.Errorf("completed = %d, want 0", res.ScenarioCompleted)
	}
	// Retired-by-departure instances never show up in Apps.
	if len(res.Apps) != 1 || res.Apps[0].Instance != "V#1" {
		t.Fatalf("Apps = %+v, want only the base app", res.Apps)
	}
	if res.Apps[0].Arrived != 0 {
		t.Errorf("base app Arrived = %v, want 0", res.Apps[0].Arrived)
	}
}

func TestScenarioCompletionAndTurnaround(t *testing.T) {
	// A Volrend instance churns in at 1s and runs to natural
	// completion under a longer-lived base app. Its turnaround must be
	// measured from its arrival, not from t=0.
	base := workload.NewApp(profile(t, "Barnes"), "B#1") // 15s solo
	res, err := Run(Config{
		Scenario: churn(t, "step:1s@0; step:29s@1", "Volrend", 1), // 12s solo, arrives at 1s
	}, sched.NewGang(4), []*workload.App{base})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScenarioArrivals != 1 || res.ScenarioCompleted != 1 {
		t.Fatalf("arrivals/completed = %d/%d, want 1/1 (departures %d)",
			res.ScenarioArrivals, res.ScenarioCompleted, res.ScenarioDepartures)
	}
	var scn *AppResult
	for i := range res.Apps {
		if strings.Contains(res.Apps[i].Instance, "/s") {
			scn = &res.Apps[i]
		}
	}
	if scn == nil {
		t.Fatalf("no scenario instance in Apps: %+v", res.Apps)
	}
	if scn.Arrived != units.Second {
		t.Errorf("scenario Arrived = %v, want 1s", scn.Arrived)
	}
	if scn.Turnaround <= 0 {
		t.Fatalf("scenario turnaround = %v, want > 0", scn.Turnaround)
	}
	// Turnaround excludes the pre-arrival second: completing at
	// ~12-13s wall means turnaround strictly below EndTime.
	if scn.Turnaround >= res.EndTime {
		t.Errorf("turnaround %v not discounted by arrival (end %v)", scn.Turnaround, res.EndTime)
	}
	if scn.Slowdown < 0.99 || scn.Slowdown > 1.3 {
		t.Errorf("scenario slowdown = %.3f, want ~1 on an idle machine", scn.Slowdown)
	}
}

func TestTurnaroundSubtractsArrival(t *testing.T) {
	// Satellite: the timed-arrival path (no scenario) must also report
	// arrival-relative turnaround through the new AppResult field.
	first := workload.NewApp(profile(t, "Barnes"), "B#1")
	late := workload.NewApp(profile(t, "Volrend"), "V#1")
	late.Arrived = 5 * units.Second
	res, err := Run(Config{}, sched.NewGang(4), []*workload.App{first, late})
	if err != nil {
		t.Fatal(err)
	}
	var lateRes *AppResult
	for i := range res.Apps {
		if res.Apps[i].Instance == "V#1" {
			lateRes = &res.Apps[i]
		}
	}
	if lateRes == nil {
		t.Fatal("late app missing from Apps")
	}
	if lateRes.Arrived != 5*units.Second {
		t.Errorf("Arrived = %v, want 5s", lateRes.Arrived)
	}
	if want := late.Completed - late.Arrived; lateRes.Turnaround != want {
		t.Errorf("Turnaround = %v, want Completed-Arrived = %v", lateRes.Turnaround, want)
	}
	if lateRes.Turnaround >= res.EndTime {
		t.Errorf("turnaround %v should exclude the 5s before arrival (end %v)", lateRes.Turnaround, res.EndTime)
	}
}

func TestScenarioDeterministicResults(t *testing.T) {
	// Same seed + pattern ⇒ identical sim Result, including the full
	// app list and float fields (%#v prints every distinct float64
	// distinctly).
	mk := func() (Result, error) {
		return Run(Config{
			Scenario: churn(t, "flashcrowd", "Volrend, CG", 42),
			MaxTime:  20 * units.Second,
		}, sched.NewQuantaWindow(4, units.SustainedBusRate), []*workload.App{
			workload.NewApp(profile(t, "Barnes"), "B#1"),
		})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if ga, gb := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b); ga != gb {
		t.Fatalf("same-seed reruns diverge:\n%s\n%s", ga, gb)
	}
	if a.ScenarioArrivals == 0 {
		t.Fatal("flashcrowd produced no arrivals")
	}
}

func TestScenarioValidation(t *testing.T) {
	base := []*workload.App{workload.NewApp(profile(t, "Volrend"), "V#1")}
	bad := &scenario.Schedule{Events: []scenario.Event{
		{At: 0, Kind: scenario.EventArrive, Profile: "NoSuchApp", Instance: "X/s1"},
	}}
	if _, err := Run(Config{Scenario: bad}, sched.NewGang(4), base); err == nil {
		t.Error("unknown scenario profile accepted")
	}
	orphan := &scenario.Schedule{Events: []scenario.Event{
		{At: 0, Kind: scenario.EventDepart, Profile: "CG", Instance: "CG/s1"},
	}}
	if _, err := Run(Config{Scenario: orphan}, sched.NewGang(4), base); err == nil {
		t.Error("departure of never-arrived instance accepted")
	}
}
