package event

import (
	"testing"

	"dvsync/internal/simtime"
)

// engineWorkload is the pinned scheduler workload: a self-rescheduling
// tick, the panel's shape, driving a three-hop event chain per tick (the
// shape of one frame through the pipeline). It returns how many chains
// completed.
func engineWorkload() int {
	const (
		period = 8 * simtime.Millisecond
		ticks  = 1000
	)
	e := NewEngine()
	fired := 0
	hop3 := func(now simtime.Time) { fired++ }
	hop2 := func(now simtime.Time) {
		e.After(simtime.Millisecond, PriorityPipeline, hop3)
	}
	var tick Handler
	tick = func(now simtime.Time) {
		// The successor first, as the panel schedules its next edge before
		// it fans the current one out.
		e.At(now.Add(period), PriorityHardware, tick)
		e.After(2*simtime.Millisecond, PriorityPipeline, hop2)
	}
	e.At(0, PriorityHardware, tick)
	e.Run(simtime.Time(ticks) * simtime.Time(period))
	return fired
}

// BenchmarkEventEngine measures the scheduler's cost on engineWorkload.
// With the free list the loop runs at a constant handful of allocations
// whatever the tick count; TestEngineWorkloadAllocs pins them exactly.
func BenchmarkEventEngine(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		if engineWorkload() == 0 {
			b.Fatal("no events fired")
		}
	}
}
