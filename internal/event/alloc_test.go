//go:build !race

package event

import (
	"runtime"
	"testing"
)

// perRun returns the allocations and bytes one call of f costs, averaged
// over runs calls after a warm-up call, as a benchmark's allocs/op and B/op
// are. Like testing.AllocsPerRun it runs at GOMAXPROCS 1. It collects
// garbage first: without that, a window now and then counts a few hundred
// bytes the workload did not allocate.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs),
		(after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestEngineWorkloadAllocs pins BenchmarkEventEngine's allocs/op and B/op
// exactly: a fresh engine, its closures, and the agenda and free list
// grown to the workload's high-water mark. The counts are deterministic,
// so any change moves them; re-pin a deliberate one here. The pin moved
// from 17 allocs / 584 B when the workload's tick became a
// self-rescheduling handler with no cancelled timeout per tick (the engine
// cancels nothing) and agenda items shrank from 40 to 32 bytes. Race
// instrumentation perturbs allocation accounting, so this file is built
// without -race only.
func TestEngineWorkloadAllocs(t *testing.T) {
	const wantAllocs, wantBytes = 13, 352
	allocs, bytes := perRun(100, func() { engineWorkload() })
	if allocs != wantAllocs || bytes != wantBytes {
		t.Errorf("engine workload: %d allocs, %d B per run, want %d allocs, %d B",
			allocs, bytes, wantAllocs, wantBytes)
	}
}
