package vsyncrec_test

import (
	"fmt"
	"math"
	"testing"

	"dvsync/internal/display"
	"dvsync/internal/dist"
	"dvsync/internal/ipl"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/vsyncrec"
	"dvsync/internal/workload"
)

// placeholder satisfies the Runner's construction-time validation; every
// run swaps a real trace in.
var placeholder = &workload.Trace{Name: "placeholder", Costs: []workload.Cost{{UI: 1, RS: 1}}}

// pair is a recurrence and a reused event-simulator Runner for one
// config.
type pair struct {
	rec *vsyncrec.Model
	rn  *sim.Runner
}

// newPair wires both models for cfg. A D-VSync Runner registers a
// predictor, so interactive frames ride the decoupled channel with the
// deterministic ones.
func newPair(cfg vsyncrec.Config) pair {
	sc := sim.Config{
		Mode:               sim.ModeVSync,
		Panel:              display.Config{RefreshHz: cfg.RefreshHz},
		Buffers:            cfg.Buffers,
		AppOffset:          cfg.AppOffset,
		VSyncPipelineDepth: cfg.Depth,
		Trace:              placeholder,
	}
	if cfg.DVSync {
		sc.Mode = sim.ModeDVSync
		sc.PreRenderLimit = cfg.PreRenderLimit
		sc.Predictor = ipl.Linear{}
	}
	return pair{rec: vsyncrec.New(cfg), rn: sim.NewRunner(sc)}
}

// diff runs tr through both models and describes their first
// disagreement, or returns "" when the recurrence reproduces every field
// it models: the jank edges and key-frame flags, the first and last latch,
// the presented, skipped and completion outcome, and the FDPS report.
func (p pair) diff(tr *workload.Trace) string {
	got := p.rec.Run(tr)
	want := p.rn.RunTrace(tr)
	if len(got.Janks) != len(want.Janks) {
		return fmt.Sprintf("%d janks, simulator %d", len(got.Janks), len(want.Janks))
	}
	for i, j := range got.Janks {
		if w := want.Janks[i]; j.EdgeSeq != w.EdgeSeq || j.KeyFrame != w.KeyFrame {
			return fmt.Sprintf("jank %d at edge %d key %t, simulator edge %d key %t",
				i, j.EdgeSeq, j.KeyFrame, w.EdgeSeq, w.KeyFrame)
		}
	}
	switch {
	case got.FirstLatch != want.FirstLatch || got.LastLatch != want.LastLatch:
		return fmt.Sprintf("latches %v..%v, simulator %v..%v",
			got.FirstLatch, got.LastLatch, want.FirstLatch, want.LastLatch)
	case got.Presented != len(want.Presented):
		return fmt.Sprintf("%d presented, simulator %d", got.Presented, len(want.Presented))
	case got.Skipped != want.Skipped:
		return fmt.Sprintf("%d skipped, simulator %d", got.Skipped, want.Skipped)
	case got.Completed != want.Completed:
		return fmt.Sprintf("completed %t, simulator %t", got.Completed, want.Completed)
	case got.Jank() != want.Jank() || math.Float64bits(got.FDPS()) != math.Float64bits(want.FDPS()):
		return fmt.Sprintf("report %+v, simulator %+v", got.Jank(), want.Jank())
	}
	return ""
}

// check fails t with the case's name when the models disagree on tr.
func (p pair) check(t *testing.T, name string, tr *workload.Trace) {
	t.Helper()
	if d := p.diff(tr); d != "" {
		t.Errorf("%s: %s", name, d)
	}
}

// gridProfiles are the suite's workload shapes: apps, use cases and games
// of each tail class, and Figure 1's mixed real-world profile.
func gridProfiles(dev scenarios.Device) []workload.Profile {
	out := []workload.Profile{scenarios.MixedRealWorldProfile()}
	for _, a := range scenarios.Apps()[:3] {
		out = append(out, a.Profile())
	}
	for _, c := range scenarios.Mate60VulkanCases()[:3] {
		out = append(out, c.Profile(dev))
	}
	for _, g := range scenarios.Games()[:3] {
		out = append(out, g.Profile())
	}
	return out
}

// TestMatchesSimulatorOnCalibrationGrid holds the recurrence to the event
// simulator over the configurations calibration probes: every rate the
// suite calibrates at (the three devices and the 30 Hz game cap), 2–5
// buffers, the suite's profiles at key-frame ratios up to the search's
// 0.3 ceiling, and cost scales up to the scale search's 6.
func TestMatchesSimulatorOnCalibrationGrid(t *testing.T) {
	frames, seeds := 300, 2
	if testing.Short() {
		frames, seeds = 120, 1
	}
	game := scenarios.Mate60Pro
	game.RefreshHz = 30
	cases := 0
	for _, dev := range append(scenarios.Devices(), game) {
		profiles := gridProfiles(dev)
		for b := 2; b <= 5; b++ {
			pr := newPair(vsyncrec.Config{RefreshHz: dev.RefreshHz, Buffers: b})
			for _, p := range profiles {
				for _, ratio := range []float64{0.002, 0.03, 0.1, 0.3} {
					for _, scale := range []float64{1, 2.5, 6} {
						for s := 0; s < seeds; s++ {
							q := p
							q.LongRatio = ratio
							tr := q.Generate(frames, int64(1000*b+s))
							if scale != 1 {
								tr = tr.Scale(scale)
							}
							pr.check(t, fmt.Sprintf("%dHz b=%d %s ratio=%g scale=%g seed=%d",
								dev.RefreshHz, b, p.Name, ratio, scale, s), tr)
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d traces", cases)
}

// TestDVSyncMatchesSimulatorOnGrid holds the D-VSync recurrence to the
// event simulator over the suite's rates (the three devices and the 30 Hz
// game cap), 2–7 buffers, every pre-render limit from 1 to the default
// Buffers − 1, offsets 0 and a third of a period, and the calibration
// grid's profiles, key-frame ratios and cost scales. Each trace runs on
// every config. Limits of at least Buffers are TestMatchesSimulatorOnTies'
// and the fuzz target's.
func TestDVSyncMatchesSimulatorOnGrid(t *testing.T) {
	frames, maxBuffers := 200, 7
	if testing.Short() {
		frames, maxBuffers = 120, 4
	}
	game := scenarios.Mate60Pro
	game.RefreshHz = 30
	cases := 0
	for _, dev := range append(scenarios.Devices(), game) {
		period := simtime.PeriodForHz(dev.RefreshHz)
		var pairs []pair
		var names []string
		for b := 2; b <= maxBuffers; b++ {
			for lim := 1; lim < b; lim++ {
				for _, off := range []simtime.Duration{0, period / 3} {
					pairs = append(pairs, newPair(vsyncrec.Config{RefreshHz: dev.RefreshHz, Buffers: b,
						AppOffset: off, DVSync: true, PreRenderLimit: lim}))
					names = append(names, fmt.Sprintf("%dHz b=%d limit=%d offset=%v", dev.RefreshHz, b, lim, off))
				}
			}
		}
		for _, p := range gridProfiles(dev) {
			for _, ratio := range []float64{0.002, 0.03, 0.1, 0.3} {
				for _, scale := range []float64{1, 2.5, 6} {
					q := p
					q.LongRatio = ratio
					tr := q.Generate(frames, int64(7*dev.RefreshHz))
					if scale != 1 {
						tr = tr.Scale(scale)
					}
					for i, pr := range pairs {
						pr.check(t, fmt.Sprintf("%s %s ratio=%g scale=%g", names[i], p.Name, ratio, scale), tr)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d traces", cases)
}

// halfPeriodTrace draws n frames whose stage costs are whole multiples of
// half a period, zeros included, so stage completions tie with edges and
// ticks at every instant the pipeline allows.
func halfPeriodTrace(g *dist.RNG, n, maxHalves int, period simtime.Duration) *workload.Trace {
	tr := &workload.Trace{Name: "half-periods", Costs: make([]workload.Cost, n)}
	for i := range tr.Costs {
		tr.Costs[i] = workload.Cost{
			UI: simtime.Duration(g.Intn(maxHalves+1)) * period / 2,
			RS: simtime.Duration(g.Intn(maxHalves+1)) * period / 2,
		}
	}
	return tr
}

// TestMatchesSimulatorOnTies runs traces built from half-period costs at
// offsets that are themselves half-period multiples, through VSync at
// pipeline depths 1–3 and D-VSync at pre-render limits 1–3 (the default
// Buffers − 1 as well): the instants where the engine's same-time
// ordering decides the outcome. A limit of 3 is at least Buffers for two
// and three buffers.
func TestMatchesSimulatorOnTies(t *testing.T) {
	reps := 10
	if testing.Short() {
		reps = 2
	}
	g := dist.New(20250330)
	for _, hz := range []int{60, 90, 120} {
		period := simtime.PeriodForHz(hz)
		for b := 2; b <= 5; b++ {
			for lim := 0; lim <= 3; lim++ {
				for halves := 0; halves <= 3; halves++ {
					off := simtime.Duration(halves) * period / 2
					vs := newPair(vsyncrec.Config{RefreshHz: hz, Buffers: b, AppOffset: off, Depth: lim})
					dv := newPair(vsyncrec.Config{RefreshHz: hz, Buffers: b, AppOffset: off,
						DVSync: true, PreRenderLimit: lim})
					for r := 0; r < reps; r++ {
						tr := halfPeriodTrace(g, 1+g.Intn(80), 1+r%6, period)
						name := fmt.Sprintf("%dHz b=%d offset=%d/2 rep=%d", hz, b, halves, r)
						vs.check(t, fmt.Sprintf("VSync %s depth=%d", name, lim), tr)
						dv.check(t, fmt.Sprintf("D-VSync %s limit=%d", name, lim), tr)
					}
				}
			}
		}
	}
}

// TestMatchesSimulatorAtHorizon runs traces in which one frame outlasts
// the run's horizon, in its UI or its render stage, so the run is cut with
// frames in flight, ticks and pumps pending and janks still accruing, in
// both modes. At 100 Hz the horizon falls on an edge, which still fires.
func TestMatchesSimulatorAtHorizon(t *testing.T) {
	cut := 0
	for _, dvsync := range []bool{false, true} {
		for _, hz := range []int{30, 60, 100, 120} {
			period := simtime.PeriodForHz(hz)
			for b := 2; b <= 4; b++ {
				for _, off := range []simtime.Duration{0, period / 3} {
					pr := newPair(vsyncrec.Config{RefreshHz: hz, Buffers: b, AppOffset: off, DVSync: dvsync})
					for _, n := range []int{1, 5, 24} {
						horizon := simtime.Duration(n+64)*period*8 + simtime.Second
						for _, at := range []int{0, n / 2, n - 1} {
							for _, ui := range []bool{true, false} {
								tr := &workload.Trace{Name: "horizon", Costs: make([]workload.Cost, n)}
								for i := range tr.Costs {
									tr.Costs[i] = workload.Cost{UI: period / 4, RS: period / 3}
								}
								long := &tr.Costs[at].RS
								if ui {
									long = &tr.Costs[at].UI
								}
								*long = horizon
								name := fmt.Sprintf("dvsync=%t %dHz b=%d offset=%v n=%d long=%d ui=%t",
									dvsync, hz, b, off, n, at, ui)
								pr.check(t, name, tr)
								if pr.rn.RunTrace(tr).Completed {
									t.Errorf("%s: the run was not cut at the horizon", name)
								}
								cut++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs cut at the horizon", cut)
}

// fuzzCase decodes a config's rate, buffers and offset and up to 256
// frame costs from fuzz bytes, and holds the recurrence to the event
// simulator. Costs are mostly small multiples of half a period, so
// completions tie with edges, ticks and pumps, with some off the
// half-period grid and a few long enough to reach the horizon.
func fuzzCase(t *testing.T, cfg vsyncrec.Config, rate, buffers, offset uint8, costs []byte) {
	cfg.RefreshHz = 1 + int(rate)%240
	cfg.Buffers = 2 + int(buffers)%(sim.MaxBuffers-1)
	period := simtime.PeriodForHz(cfg.RefreshHz)
	cfg.AppOffset = simtime.Duration(offset) * period / 32
	n := min(len(costs)/2, 256)
	if n == 0 {
		t.Skip("no frames")
	}
	horizon := simtime.Duration(n+64)*period*8 + simtime.Second
	cost := func(b byte) simtime.Duration {
		switch {
		case b < 192:
			return simtime.Duration(b%8) * period / 2
		case b < 248:
			return simtime.Duration(b-191) * period / 7
		default:
			return simtime.Duration(b-247) * horizon / 4
		}
	}
	tr := &workload.Trace{Name: "fuzz", Costs: make([]workload.Cost, n)}
	for i := range tr.Costs {
		tr.Costs[i] = workload.Cost{UI: cost(costs[2*i]), RS: cost(costs[2*i+1])}
	}
	if d := newPair(cfg).diff(tr); d != "" {
		t.Errorf("%+v, %d frames: %s", cfg, n, d)
	}
}

// FuzzVSyncRecurrence holds the VSync recurrence to the event simulator at
// pipeline depths 0–5 (fuzzCase has the decoding).
func FuzzVSyncRecurrence(f *testing.F) {
	f.Add(uint8(59), uint8(1), uint8(0), uint8(0), []byte{2, 2, 2, 2, 5, 2, 2, 2, 9, 1, 2, 2})
	f.Add(uint8(119), uint8(2), uint8(32), uint8(3), []byte{0, 0, 4, 4, 0, 6, 2, 0, 1, 1})
	f.Add(uint8(89), uint8(0), uint8(64), uint8(1), []byte{3, 3, 200, 7, 1, 250, 2, 2})
	f.Add(uint8(29), uint8(3), uint8(16), uint8(2), []byte{1, 2, 255, 0, 1, 1})
	f.Add(uint8(0), uint8(62), uint8(100), uint8(5), []byte{7, 7, 0, 0, 3, 9})
	f.Fuzz(func(t *testing.T, rate, buffers, offset, depth uint8, costs []byte) {
		fuzzCase(t, vsyncrec.Config{Depth: int(depth) % 6}, rate, buffers, offset, costs)
	})
}

// FuzzDVSyncRecurrence holds the D-VSync recurrence to the event
// simulator at pre-render limits 0–9, the default included, some of them
// at least Buffers (fuzzCase has the decoding).
func FuzzDVSyncRecurrence(f *testing.F) {
	f.Add(uint8(59), uint8(2), uint8(0), uint8(0), []byte{2, 2, 2, 2, 5, 2, 2, 2, 9, 1, 2, 2})
	f.Add(uint8(119), uint8(3), uint8(32), uint8(3), []byte{0, 0, 4, 4, 0, 6, 2, 0, 1, 1})
	f.Add(uint8(89), uint8(0), uint8(64), uint8(1), []byte{3, 3, 200, 7, 1, 250, 2, 2})
	f.Add(uint8(29), uint8(1), uint8(16), uint8(9), []byte{1, 2, 255, 0, 1, 1})
	f.Add(uint8(0), uint8(62), uint8(100), uint8(2), []byte{7, 7, 0, 0, 3, 9})
	f.Fuzz(func(t *testing.T, rate, buffers, offset, limit uint8, costs []byte) {
		fuzzCase(t, vsyncrec.Config{DVSync: true, PreRenderLimit: int(limit) % 10}, rate, buffers, offset, costs)
	})
}

// benchTrace is the 400-frame workload of the simulator's benchmarks
// (benchTrace in internal/sim).
func benchTrace() *workload.Trace {
	p := workload.Profile{
		Name: "bench", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive,
	}
	return p.Generate(400, 1234)
}

// TestRunSteadyStateAllocs pins a warm run of each model at zero
// allocations: a Model owns its ring and result and rewinds both.
func TestRunSteadyStateAllocs(t *testing.T) {
	tr := benchTrace()
	for _, cfg := range []vsyncrec.Config{
		{RefreshHz: 60, Buffers: 4},
		{RefreshHz: 60, Buffers: 4, DVSync: true},
	} {
		m := vsyncrec.New(cfg)
		m.Run(tr)
		if avg := testing.AllocsPerRun(10, func() { m.Run(tr) }); avg != 0 {
			t.Errorf("%+v: a warm run allocates %v, want 0", cfg, avg)
		}
	}
}

// benchRun prices one run of tr on the recurrence for cfg against the
// same run on a reused event-simulator Runner, after checking that the
// two agree.
func benchRun(b *testing.B, cfg vsyncrec.Config) {
	tr := benchTrace()
	pr := newPair(cfg)
	if d := pr.diff(tr); d != "" {
		b.Fatal(d)
	}
	b.Run("recurrence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr.rec.Run(tr)
		}
	})
	b.Run("runner", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr.rn.RunTrace(tr)
		}
	})
}

// BenchmarkVSyncRun prices one 400-frame VSync run.
func BenchmarkVSyncRun(b *testing.B) { benchRun(b, vsyncrec.Config{RefreshHz: 60, Buffers: 4}) }

// BenchmarkDVSyncRun prices one 400-frame D-VSync run.
func BenchmarkDVSyncRun(b *testing.B) {
	benchRun(b, vsyncrec.Config{RefreshHz: 60, Buffers: 4, DVSync: true})
}
