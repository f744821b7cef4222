package exp

import (
	"math"
	"testing"

	"dvsync/internal/scenarios"
	"dvsync/internal/workload"
)

// referenceCalibration is the calibration search with no reuse at all:
// every evaluation regenerates all Replicas traces and simulates each on a
// fresh System, summing in index order.
func referenceCalibration(p workload.Profile, frames int, dev scenarios.Device, buffers int,
	target float64, seed int64) calibration {
	const maxRatio = 0.30
	mean := func(trace func(i int) *workload.Trace) float64 {
		var sum float64
		for i := 0; i < Replicas; i++ {
			sum += VSyncRun(trace(i), dev, buffers).FDPS()
		}
		return sum / Replicas
	}
	measureRatio := func(ratio float64) float64 {
		q := p
		q.LongRatio = ratio
		return mean(func(i int) *workload.Trace { return q.Generate(frames, seed+int64(i)) })
	}
	if measureRatio(maxRatio) >= target {
		return calibration{ratio: bisect(measureRatio, target, 0.002, maxRatio), scale: 1}
	}
	q := p
	q.LongRatio = maxRatio
	measureScale := func(s float64) float64 {
		return mean(func(i int) *workload.Trace { return q.Generate(frames, seed+int64(i)).Scale(s) })
	}
	return calibration{ratio: maxRatio, scale: bisect(measureScale, target, 1.0, 6.0)}
}

// calibCase is one pinned calibration search.
type calibCase struct {
	name      string
	p         workload.Profile
	frames    int
	dev       scenarios.Device
	buffers   int
	target    float64
	ratioBits uint64 // math.Float64bits of the pinned ratio
	scaleBits uint64 // math.Float64bits of the pinned scale
}

func calibCases(t *testing.T) []calibCase {
	t.Helper()
	pixel, mate := scenarios.Pixel5, scenarios.Mate60Pro
	var qqmusic scenarios.App
	for _, a := range scenarios.Apps() {
		if a.Name == "QQMusic" {
			qqmusic = a
		}
	}
	var rot scenarios.CaseRun
	for _, c := range scenarios.Mate60VulkanCases() {
		if c.Case.Abbrev == "rot btn anim" {
			rot = c
		}
	}
	if qqmusic.Name == "" || rot.Case.Abbrev == "" {
		t.Fatal("catalog no longer lists QQMusic or rot btn anim")
	}
	return []calibCase{
		{
			name: "memo-test", frames: 300, dev: pixel, buffers: pixel.Buffers, target: 2.0,
			p:         scenarios.BaseProfile("memo-test", pixel, scenarios.Moderate, workload.Deterministic),
			ratioBits: 0x3fa597be40e56042, scaleBits: 0x3ff0000000000000, // 0.04217333357036114, 1
		},
		{
			name: "fig11-QQMusic", frames: scenarios.AppFrames, dev: pixel, buffers: pixel.Buffers,
			target: qqmusic.PaperVSyncFDPS, p: qqmusic.Profile(),
			ratioBits: 0x3fa84ca6e70a3d70, scaleBits: 0x3ff0000000000000, // 0.04745980806648731, 1
		},
		{
			name: "fig12-rot-btn-anim", frames: scenarios.UseCaseFrames, dev: mate, buffers: 4,
			target: rot.PaperVSyncFDPS, p: rot.Profile(mate),
			ratioBits: 0x3fd3333333333333, scaleBits: 0x3ff2258d6e000000, // 0.3, 1.1341680809855461 (cost-scale branch)
		},
	}
}

// TestCalibrationMatchesReference requires the production search, at any
// pool width, to land on exactly the calibration the no-reuse reference
// search finds, and both to match bits pinned before replicas reused their
// FDPS, so the reuse can never shift a figure.
func TestCalibrationMatchesReference(t *testing.T) {
	for _, c := range calibCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref := referenceCalibration(c.p, c.frames, c.dev, c.buffers, c.target, Seed)
			if got := math.Float64bits(ref.ratio); got != c.ratioBits {
				t.Errorf("reference ratio %v (bits %#x), pinned bits %#x", ref.ratio, got, c.ratioBits)
			}
			if got := math.Float64bits(ref.scale); got != c.scaleBits {
				t.Errorf("reference scale %v (bits %#x), pinned bits %#x", ref.scale, got, c.scaleBits)
			}
			for _, workers := range []int{1, 4} {
				var got calibration
				withWorkers(t, workers, func() {
					got = calibrateParamsUncached(c.p, c.frames, c.dev, c.buffers, c.target, Seed)
				})
				if math.Float64bits(got.ratio) != math.Float64bits(ref.ratio) ||
					math.Float64bits(got.scale) != math.Float64bits(ref.scale) {
					t.Errorf("workers=%d: search found %+v, reference %+v", workers, got, ref)
				}
			}
		})
	}
}
