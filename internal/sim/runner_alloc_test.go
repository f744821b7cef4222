//go:build !race

// The allocation pins of the simulator: exact allocs and bytes per run,
// read from the runtime's counters as a benchmark reads them. Race
// instrumentation perturbs allocation accounting, so this file is built
// without -race only; CI runs it in its "Steady-state allocations (no
// race)" step.

package sim

import (
	"runtime"
	"testing"

	"dvsync/internal/workload"
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

// TestSimRunAllocs pins BenchmarkSimRun's allocs/op and B/op exactly: what
// wiring a fresh System and running benchTrace costs in each mode. The
// counts are deterministic, so any change moves them; re-pin a deliberate
// one here. The pins last moved (VSync 59 allocs / 61 224 B, D-VSync
// 68 / 61 784 B before) when the signal distributor took its one handler
// at construction: its listener slice (one 8-byte allocation) went, and
// the distributor shrank from 48 to 32 bytes.
func TestSimRunAllocs(t *testing.T) {
	tr := benchTrace()
	for _, c := range []struct {
		mode              Mode
		wantAllocs, wantB uint64
	}{
		{ModeVSync, 58, 61200},
		{ModeDVSync, 67, 61760},
	} {
		allocs, bytes := perRun(50, func() { Run(benchConfig(c.mode, tr)) })
		if allocs != c.wantAllocs || bytes != c.wantB {
			t.Errorf("%v: %d allocs, %d B per fresh run, want %d allocs, %d B",
				c.mode, allocs, bytes, c.wantAllocs, c.wantB)
		}
	}
}

// TestRunnerSteadyStateAllocs pins the reuse path at zero: once every
// arena and ring has grown to the workload's high-water mark, a rewound
// run allocates nothing, on benchTrace (BenchmarkRunnerReuse's workload)
// and on a 200-frame trace of the checkpoint profile.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	p := goldenProfile()
	for _, c := range []struct {
		name string
		tr   *workload.Trace
	}{{"bench", benchTrace()}, {"checkpoint", p.Generate(200, 42)}} {
		rn := NewRunner(benchConfig(ModeDVSync, c.tr))
		rn.Run()
		if allocs, bytes := perRun(20, func() { rn.Run() }); allocs != 0 || bytes != 0 {
			t.Errorf("%s: %d allocs, %d B per reused run, want 0", c.name, allocs, bytes)
		}
	}
}
