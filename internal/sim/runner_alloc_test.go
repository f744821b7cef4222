//go:build !race

package sim

import (
	"testing"

	"dvsync/internal/flight"
	"dvsync/internal/ipl"
	"dvsync/internal/simtime"
)

// TestRunnerSteadyStateAllocs pins the reuse-path allocation budget: once
// every arena and ring has grown to the workload's high-water mark, a
// rewound run must stay at or under 8 allocations (the trajectory
// baseline pins the benchmark's exact count). Race instrumentation
// perturbs allocation accounting, so this file is excluded from -race
// runs — BenchmarkRunnerReuse and the perf gate cover the same budget.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	p := ckptProfile()
	rn := NewRunner(Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Trace: p.Generate(200, 42), Predictor: ipl.Kalman{}})
	rn.Run()
	rn.Run()
	if avg := testing.AllocsPerRun(5, func() { rn.Run() }); avg > 8 {
		t.Errorf("steady-state allocations per reused run = %v, want <= 8", avg)
	}
}

// TestRunnerSteadyStateAllocsFlight pins the always-on flight recorder's
// steady-state price at zero: a reused run recording into the ring must
// hold the same ≤ 8 allocation budget as a bare run. The ring's event
// storage is preallocated at construction and Reset between runs keeps
// it, so recording a frame is a copy into owned memory, never an append
// that grows.
func TestRunnerSteadyStateAllocsFlight(t *testing.T) {
	p := ckptProfile()
	rn := NewRunner(Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Trace: p.Generate(200, 42), Predictor: ipl.Kalman{},
		Recorder: flight.New(flight.Config{})})
	rn.Run()
	rn.Run()
	if avg := testing.AllocsPerRun(5, func() { rn.Run() }); avg > 8 {
		t.Errorf("steady-state allocations per reused run with flight recorder = %v, want <= 8", avg)
	}
}

// TestRunnerCheckpointedAllocs: pausing a reused Runner's run every
// 100 ms to hand a callback the instant allocates no more than the plain
// run does. A checkpoint is a replay marker, so the pause copies nothing
// out of the simulator.
func TestRunnerCheckpointedAllocs(t *testing.T) {
	p := ckptProfile()
	rn := NewRunner(Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Trace: p.Generate(200, 42), Predictor: ipl.Kalman{}})
	noop := func(simtime.Time) error { return nil }
	checkpointed := func() {
		rn.Reset()
		if _, err := rn.System().RunCheckpointed(100*simtime.Millisecond, noop); err != nil {
			t.Fatal(err)
		}
	}
	rn.Run()
	checkpointed()
	plain := testing.AllocsPerRun(5, func() { rn.Run() })
	if got := testing.AllocsPerRun(5, checkpointed); got > plain {
		t.Errorf("allocations per reused checkpointed run = %v, plain run %v", got, plain)
	}
}
