package sim

import (
	"testing"

	"dvsync/internal/ipl"
	"dvsync/internal/workload"
)

// benchTrace is the pinned end-to-end workload: 400 interactive frames,
// seed 1234, the unit of work every experiment replica fans out. The
// benchmarks below, their allocation pins and TestRunnerEventsPerRun all
// run it.
func benchTrace() *workload.Trace {
	p := workload.Profile{
		Name: "bench", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive,
	}
	return p.Generate(400, 1234)
}

// benchConfig runs tr in mode on the 60 Hz test panel with four buffers
// and the Kalman predictor.
func benchConfig(mode Mode, tr *workload.Trace) Config {
	return Config{Mode: mode, Panel: panel60(), Buffers: 4, Trace: tr,
		Predictor: ipl.Kalman{}}
}

// BenchmarkSimRun measures a fresh end-to-end simulation of benchTrace
// under both architectures: wiring, the run and its result.
// TestSimRunAllocs pins its allocs/op and B/op.
func BenchmarkSimRun(b *testing.B) {
	tr := benchTrace()
	for _, mode := range []Mode{ModeVSync, ModeDVSync} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Run(benchConfig(mode, tr))
			}
		})
	}
}

// BenchmarkRunnerReuse measures the reuse path: one Runner replaying
// benchTrace in D-VSync back to back, after a warm-up run that grows every
// arena and ring to the workload's high-water mark. It reports runs/sec;
// TestRunnerSteadyStateAllocs pins a reused run at 0 allocations.
func BenchmarkRunnerReuse(b *testing.B) {
	rn := NewRunner(benchConfig(ModeDVSync, benchTrace()))
	rn.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rn.Run()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "runs/sec")
	}
}

// BenchmarkConfigDigest measures one digest of the fleet-census
// benchmark's 600-frame cell: the census keys every cell it has not seen
// by this digest, and dvserve and flight dumps take it once per run.
func BenchmarkConfigDigest(b *testing.B) {
	cfg := fleetCellConfig(ModeDVSync)
	b.ReportAllocs()
	for range b.N {
		ConfigDigest(cfg)
	}
}
