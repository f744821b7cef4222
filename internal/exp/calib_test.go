package exp

import (
	"math"
	"slices"
	"testing"

	"dvsync/internal/metrics"
	"dvsync/internal/par"
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

// referenceStutters is the stutter search with no reuse at all: every
// probe regenerates every scene, joins them with workload.Concat and runs
// a fresh VSyncRun.
func referenceStutters(task scenarios.UXTask, dev scenarios.Device) *workload.Trace {
	cfg := metrics.DefaultStutterConfig()
	gen := func(ratio float64) *workload.Trace {
		p := scenarios.BaseProfile(task.Name, dev, task.Tail, workload.Deterministic)
		p.LongRatio = ratio
		var scenes []*workload.Trace
		for i := 0; i < task.Scenes; i++ {
			scenes = append(scenes, p.Generate(task.SceneFrames, Seed+int64(i)*7919))
		}
		return workload.Concat(task.Name, scenes...)
	}
	measure := func(ratio float64) float64 {
		return float64(metrics.CountStutters(VSyncRun(gen(ratio), dev, dev.Buffers).JankEvents(), cfg))
	}
	return gen(bisect(measure, float64(task.PaperVSyncStutters), 0.001, 0.30))
}

// TestStutterCalibrationMatchesReference requires the stutter search, which
// runs every probe on one recurrence and regenerates only the scenes a
// probe's ratio changes, to return for every Table 2 task the trace the
// no-reuse reference search, on fresh event-simulator runs, returns, cost
// for cost. The searches fan out over the
// tasks as Table2 does, at one worker and at four.
func TestStutterCalibrationMatchesReference(t *testing.T) {
	dev := scenarios.Mate60Pro
	tasks := scenarios.UXTasks()
	want := make([]*workload.Trace, len(tasks))
	for i, task := range tasks {
		want[i] = referenceStutters(task, dev)
	}
	for _, workers := range []int{1, 4} {
		var got []*workload.Trace
		withWorkers(t, workers, func() {
			got = par.Map(len(tasks), func(i int) *workload.Trace { return calibrateStutters(tasks[i], dev) })
		})
		for i, task := range tasks {
			if got[i].Name != want[i].Name || !slices.Equal(got[i].Costs, want[i].Costs) {
				t.Errorf("workers=%d %s: search trace (%d frames) differs from the reference's (%d frames)",
					workers, task.Name, got[i].Len(), want[i].Len())
			}
		}
	}
}

// TestProbeSteadyStateAllocs pins a warm calibration probe — generate a
// replica into the search's trace buffer with its stream, run it on the
// search's recurrence, read FDPS — at zero allocations. It uses no
// sync.Pool, so it holds under the race detector too.
func TestProbeSteadyStateAllocs(t *testing.T) {
	dev := scenarios.Pixel5
	q := scenarios.BaseProfile("probe-allocs", dev, scenarios.Moderate, workload.Deterministic)
	pr := newProbe(dev, dev.Buffers)
	seed := Seed
	for i := 0; i < 3; i++ {
		pr.replica(&q, 300, seed+int64(i))
	}
	if avg := testing.AllocsPerRun(10, func() {
		seed++
		pr.replica(&q, 300, seed)
	}); avg != 0 {
		t.Errorf("warm probe allocates %v per replica, want 0", avg)
	}
}
