package sim_test

import (
	"testing"

	"dvsync/internal/bench"
	"dvsync/internal/sim"
)

// BenchmarkSimRun measures an end-to-end simulation of a 400-frame
// interactive workload under both architectures — the unit of work every
// experiment replica fans out. The body lives in internal/bench so that
// `dvbench -bench-json` measures exactly this workload when emitting the
// perf-trajectory snapshot CI gates against BENCH_baseline.json.
// Allocation counts here are the target of the hot-path cuts and of the
// zero-cost-without-registry telemetry contract.
func BenchmarkSimRun(b *testing.B) {
	for _, mode := range []sim.Mode{sim.ModeVSync, sim.ModeDVSync} {
		b.Run(mode.String(), bench.SimRun(mode))
	}
}

// BenchmarkRunnerReuse measures the reuse path: one Runner replaying the
// pinned workload back to back. It reports runs/sec and the steady-state
// allocs/op of a rewound run (gated at ≤ 8 by TestRunnerSteadyStateAllocs
// and the trajectory baseline). The body lives in internal/bench for the
// same single-definition reason as BenchmarkSimRun.
func BenchmarkRunnerReuse(b *testing.B) {
	bench.RunnerReuse(b)
}

// BenchmarkRunnerReuseFlight is the reuse path with the flight recorder
// attached: the always-on observability contract pins its steady-state
// cost at zero extra allocations over BenchmarkRunnerReuse.
func BenchmarkRunnerReuseFlight(b *testing.B) {
	bench.RunnerReuseFlight(b)
}

// BenchmarkConfigDigest measures one digest of the fleet-census
// benchmark's 600-frame cell: the census keys every cell it has not seen
// by this digest, and dvserve, dvsim's checkpoints and flight dumps take
// it once per run.
func BenchmarkConfigDigest(b *testing.B) {
	cfg := sim.FleetCellConfig(sim.ModeDVSync)
	b.ReportAllocs()
	for range b.N {
		sim.ConfigDigest(cfg)
	}
}
