package sched

import (
	"testing"

	"busaware/internal/units"
	"busaware/internal/workload"
)

// BenchmarkLinuxSchedule measures one Linux baseline decision on an
// oversubscribed machine: twelve threads on four CPUs, with an
// affinity map updated from each result as the machine would, so
// epochs roll over and the shuffle runs at their boundaries.
func BenchmarkLinuxSchedule(b *testing.B) {
	l := NewLinux(4, 1)
	for _, name := range []string{"CG", "SP", "MG", "Raytrace", "Volrend"} {
		p, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("no profile %q", name)
		}
		l.Add(NewJob(workload.NewApp(p, name+"#1"), 1, 0))
	}
	l.Add(NewJob(workload.NewApp(workload.BBMA(), "BBMA#1"), 1, 0))
	l.Add(NewJob(workload.NewApp(workload.NBBMA(), "nBBMA#1"), 1, 0))
	aff := fakeAffinity{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range l.Schedule(units.Time(i)*LinuxQuantum, aff) {
			aff[p.Thread] = p.CPU
		}
	}
}
