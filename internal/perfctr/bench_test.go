package perfctr

import "testing"

// BenchmarkCountersAdd measures one micro-step's worth of counter
// updates made one event at a time: the four Adds a thread's counters
// took per micro-step before the machine batched them per Step.
func BenchmarkCountersAdd(b *testing.B) {
	var c Counters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(EventCycles, 14_000_000)
		c.Add(EventBusTransAny, 62_000)
		c.Add(EventL2Refs, 281_818)
		c.Add(EventL2Misses, 62_000)
	}
}

// BenchmarkCountersAddAll measures the same four increments flushed
// with one AddAll, as the machine does once per thread per Step.
func BenchmarkCountersAddAll(b *testing.B) {
	var c Counters
	d := [NumEvents]uint64{14_000_000, 62_000, 281_818, 62_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddAll(d)
	}
}
