package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

var updateLinuxGolden = flag.Bool("update", false, "rewrite the Linux placement golden from current output")

// TestLinuxPlacementSequence pins the Linux baseline's whole decision
// stream: the RNG draws of the per-epoch shuffle, the goodness scan
// with its affinity bonus, and the runqueue order after Add and after
// a Remove in the middle of an epoch. Twelve threads compete for four
// CPUs, two finite applications finish and retire, and one arrives
// late. Every Schedule result of 240 quanta is compared line by line
// with testdata/linux_sequence.golden. To regenerate after an
// intended behaviour change:
//
//	go test ./internal/sched -run TestLinuxPlacementSequence -update
func TestLinuxPlacementSequence(t *testing.T) {
	const quanta = 240
	short := func(name string, solo units.Time) workload.Profile {
		p := mustProfile(t, name)
		p.SoloTime = solo
		return p
	}
	newJob := func(p workload.Profile, instance string) *Job {
		return NewJob(workload.NewApp(p, instance), 1, 0)
	}

	l := NewLinux(4, 11)
	jobs := []*Job{
		newJob(short("CG", 4*units.Second), "CG#1"),
		newJob(workload.BBMA(), "BBMA#1"),
		newJob(workload.BBMA(), "BBMA#2"),
		newJob(short("SP", 3*units.Second), "SP#1"),
		newJob(mustProfile(t, "Raytrace"), "Raytrace#1"),
		newJob(mustProfile(t, "Volrend"), "Volrend#1"),
		newJob(workload.NBBMA(), "nBBMA#1"),
	}
	for _, j := range jobs {
		l.Add(j)
	}
	late := newJob(mustProfile(t, "MG"), "MG#1")
	removed := jobs[4] // Raytrace#1, mid-epoch
	const (
		lateAt   = 40
		removeAt = 123
	)

	aff := fakeAffinity{}
	var b strings.Builder
	for q := 0; q < quanta; q++ {
		switch q {
		case lateAt:
			l.Add(late)
			jobs = append(jobs, late)
		case removeAt:
			l.Remove(removed)
		}
		now := units.Time(q) * LinuxQuantum
		fmt.Fprintf(&b, "q%03d", q)
		for _, p := range l.Schedule(now, aff) {
			fmt.Fprintf(&b, " %d=%s/%d", p.CPU, p.Thread.App.Instance, p.Thread.Index)
			aff[p.Thread] = p.CPU
			p.Thread.AdvanceWork(float64(LinuxQuantum))
		}
		b.WriteByte('\n')
		kept := jobs[:0]
		for _, j := range jobs {
			if j.App.Done() {
				l.Remove(j)
				fmt.Fprintf(&b, "done %s\n", j.App.Instance)
				continue
			}
			kept = append(kept, j)
		}
		jobs = kept
	}

	got := b.String()
	path := filepath.Join("testdata", "linux_sequence.golden")
	if *updateLinuxGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("placement sequence diverges at line %d:\ngot  %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("placement sequence has %d lines, golden %d", len(gotLines), len(wantLines))
	}
}
