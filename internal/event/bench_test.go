package event

import (
	"testing"

	"dvsync/internal/simtime"
)

// engineWorkload is the pinned scheduler workload: a panel ticker driving
// a three-hop event chain per tick (the shape of one frame through the
// pipeline), plus a schedule-then-cancel per tick to exercise tombstone
// handling. It returns how many chains completed.
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
	tk := NewTicker(e, period, PriorityHardware, func(now simtime.Time) {
		e.After(2*simtime.Millisecond, PriorityPipeline, hop2)
		// Schedule-then-cancel models a controller arming a timeout that
		// the frame's completion races and wins.
		e.Cancel(e.After(6*simtime.Millisecond, PriorityControl, hop3))
	})
	tk.Start(0)
	e.Run(simtime.Time(ticks) * simtime.Time(period))
	tk.Stop()
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
