package bus

import (
	"testing"

	"busaware/internal/units"
)

// benchReqs is a saturated mixed request vector shaped like the
// Figure 2C co-schedules: two application threads, one BBMA, one
// nBBMA.
var benchReqs = []Request{
	{Demand: 6.2, StallFrac: 0.55},
	{Demand: 6.2, StallFrac: 0.55},
	{Demand: 21.1, StallFrac: 0.97},
	{Demand: 0.0037, StallFrac: 0.01},
}

// BenchmarkBusAllocate measures the steady-state equilibrium cost:
// after the first solve the vector repeats, so this is the memo hit
// path — slot lookup, exact compare, grants recomputed from the stored
// stretch — that every new request vector of a run pays.
func BenchmarkBusAllocate(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var grants []Grant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grants, _ = m.AllocateInto(grants, benchReqs)
	}
}

// BenchmarkBusAllocateCold measures the fixed-point solve by perturbing
// one demand every iteration. The perturbation cycles through 100000
// vectors, about 24 per memo slot, so by the time a vector repeats its
// slot has almost always been overwritten and the call re-solves.
func BenchmarkBusAllocateCold(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reqs := append([]Request(nil), benchReqs...)
	var grants []Grant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs[0].Demand = 6 + units.Rate(i%100000)*1e-6
		grants, _ = m.AllocateInto(grants, reqs)
	}
}

// BenchmarkBusAllocateHitRotating cycles through four resident
// 4-request vectors, so every call is a memo hit on a different slot
// than the last: the hashed lookup and the exact vector comparison are
// what it measures.
func BenchmarkBusAllocateHitRotating(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var vecs [4][]Request
	for i := range vecs {
		vecs[i] = append([]Request(nil), benchReqs...)
		vecs[i][0].Demand += units.Rate(i)
	}
	var grants []Grant
	for _, v := range vecs {
		grants, _ = m.AllocateInto(grants, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grants, _ = m.AllocateInto(grants, vecs[i%len(vecs)])
	}
}
