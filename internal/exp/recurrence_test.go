package exp

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"dvsync/internal/buffer"
	"dvsync/internal/core"
	"dvsync/internal/fault"
	"dvsync/internal/ipl"
	"dvsync/internal/ltpo"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/vsyncrec"
	"dvsync/internal/workload"
)

// runnerFor builds a reusable Runner for a traceless experiment config.
// The one-frame placeholder trace only satisfies construction-time
// validation; every run swaps a real trace in through RunTrace.
func runnerFor(cfg sim.Config) *sim.Runner {
	cfg.Trace = placeholderTrace
	return sim.NewRunner(cfg)
}

// placeholderTrace is the shared construction-time stand-in (read-only,
// like all traces, so workers may share it).
var placeholderTrace = func() *workload.Trace {
	p := workload.Profile{Name: "placeholder", ShortMeanMs: 1, UIShare: 0.5,
		Class: workload.Deterministic}
	return p.Generate(1, 1)
}()

// outsidePipeline edits a config out of what both recurrences model, one
// plainPipeline clause each.
func outsidePipeline(t *testing.T) map[string]func(*sim.Config) {
	t.Helper()
	faults, err := fault.Scenario(fault.Classes()[0], 0.5, 0, simtime.Time(simtime.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(*sim.Config){
		"jitter":     func(c *sim.Config) { c.Panel.JitterStdDev = simtime.Microsecond },
		"skew":       func(c *sim.Config) { c.Panel.PeriodSkewPPM = 50 },
		"edge delay": func(c *sim.Config) { c.Panel.EdgeDelay = func(simtime.Time) simtime.Duration { return 0 } },
		"edge miss":  func(c *sim.Config) { c.Panel.EdgeMiss = func(simtime.Time, uint64) bool { return false } },
		"faults":     func(c *sim.Config) { c.Faults = faults },
		"ltpo": func(c *sim.Config) {
			c.LTPOPolicy = ltpo.DefaultUIPolicy()
			c.LTPOVelocity = func(simtime.Time) float64 { return 0 }
		},
		"stale":          func(c *sim.Config) { c.DropStaleBuffers = true },
		"watchdog":       func(c *sim.Config) { c.MaxSimTime = simtime.Second },
		"content sample": func(c *sim.Config) { c.ContentSample = func(*buffer.Frame, simtime.Time) {} },
	}
}

// TestVSyncConfigInRecurrenceDomain keeps every configuration calibration
// probes inside the recurrence's domain: for each device and 2–5 buffers,
// VSyncConfig must be a run the recurrence reproduces exactly, so a device
// edit cannot silently move calibration off the simulator's semantics. It
// also checks that the domain rejects what the recurrence does not model,
// one row per clause.
func TestVSyncConfigInRecurrenceDomain(t *testing.T) {
	for _, dev := range scenarios.Devices() {
		for b := 2; b <= 5; b++ {
			if !inVSyncDomain(VSyncConfig(dev, b)) {
				t.Errorf("%s, %d buffers: VSyncConfig is outside the recurrence's domain", dev.Name, b)
			}
		}
	}
	outside := outsidePipeline(t)
	outside["dvsync"] = func(c *sim.Config) { c.Mode = sim.ModeDVSync }
	for name, edit := range outside {
		cfg := VSyncConfig(scenarios.Pixel5, 3)
		edit(&cfg)
		if inVSyncDomain(cfg) {
			t.Errorf("%s: the domain admits a config the recurrence does not model", name)
		}
	}
}

// TestDVSyncConfigInRecurrenceDomain keeps every D-VSync configuration the
// FDPS figures build inside the D-VSync recurrence's domain, rejects what
// it does not model, one row per clause, and runs every config the domain
// admits for a reason (an observer, a DTV or overhead setting, an offset,
// an extreme limit) differentially against the event simulator.
func TestDVSyncConfigInRecurrenceDomain(t *testing.T) {
	aware := func(c *sim.Config) { c.Predictor = ipl.Linear{} }
	for _, dev := range scenarios.Devices() {
		for b := 2; b <= 7; b++ {
			if !inDVSyncDomain(DVSyncConfig(dev, b)) || !inDVSyncDomain(DVSyncConfig(dev, b, aware)) {
				t.Errorf("%s, %d buffers: DVSyncConfig is outside the recurrence's domain", dev.Name, b)
			}
		}
	}
	outside := outsidePipeline(t)
	outside["vsync"] = func(c *sim.Config) { c.Mode = sim.ModeVSync }
	outside["disabled"] = func(c *sim.Config) { c.DisableDVSync = true }
	outside["runtime switch"] = func(c *sim.Config) { c.RuntimeSwitch = func(simtime.Time) bool { return true } }
	outside["fallback"] = func(c *sim.Config) {
		c.EnableFallback = true
		c.Health = faultsHealth()
	}
	outside["fpe backoff"] = func(c *sim.Config) { c.FPEOverloadAfter = 3 }
	for name, edit := range outside {
		cfg := DVSyncConfig(scenarios.Pixel5, 4)
		edit(&cfg)
		if inDVSyncDomain(cfg) {
			t.Errorf("%s: the domain admits a config the recurrence does not model", name)
		}
	}

	dev := scenarios.Pixel5
	p := scenarios.BaseProfile("domain", dev, scenarios.Moderate, workload.Deterministic)
	p.LongRatio = 0.2
	q, r := p, p
	q.Class, r.Class = workload.Interactive, workload.Realtime
	anim, touch := p.Generate(300, Seed), q.Generate(300, Seed)
	if !decoupled(DVSyncConfig(dev, 4), anim) || !decoupled(DVSyncConfig(dev, 4, aware), touch) {
		t.Error("decoupled rejects frames the D-VSync channel decouples")
	}
	if decoupled(DVSyncConfig(dev, 4), touch) {
		t.Error("decoupled admits interactive frames with no predictor registered")
	}
	if decoupled(DVSyncConfig(dev, 4, aware), r.Generate(300, Seed)) {
		t.Error("decoupled admits realtime frames, which always take the VSync path")
	}

	dtv := core.DefaultDTVConfig()
	dtv.CalibrateEvery, dtv.PeriodSmoothing, dtv.MaxAbsErrMs = 2, 0.5, 1
	inside := map[string]func(*sim.Config){
		"dtv":      func(c *sim.Config) { c.DTV = dtv },
		"overhead": func(c *sim.Config) { c.PerFrameOverhead = 3 * simtime.Millisecond },
		"metrics":  func(c *sim.Config) { c.Metrics = telemetry.NewRegistry() },
		"recorder": func(c *sim.Config) { c.Recorder = trace.NewRecorder() },
		"offset":   func(c *sim.Config) { c.AppOffset = dev.Period() / 3 },
		"limit 1":  func(c *sim.Config) { c.PreRenderLimit = 1 },
		"limit 6":  func(c *sim.Config) { c.PreRenderLimit = 6 },
	}
	for name, edit := range inside {
		for _, scale := range []float64{1, 3} {
			for i, tr := range []*workload.Trace{anim.Scale(scale), touch.Scale(scale)} {
				cfg := DVSyncConfig(dev, 4, aware)
				edit(&cfg)
				if !inDVSyncDomain(cfg) || !decoupled(cfg, tr) {
					t.Fatalf("%s: outside the domain", name)
				}
				got := recurrence(cfg).Run(tr)
				cfg.Trace = tr
				if d := probeDiff(got, sim.Run(cfg)); d != "" {
					t.Errorf("%s, trace %d at scale %g: %s", name, i, scale, d)
				}
			}
		}
	}
}

// TestAvgFDPSPanicsOutsideDomains: an FDPS mean has no event-simulator
// path, so a config or a frame outside both recurrences' domains panics
// instead of being measured on other semantics.
func TestAvgFDPSPanicsOutsideDomains(t *testing.T) {
	dev := scenarios.Pixel5
	p := scenarios.BaseProfile("outside", dev, scenarios.Moderate, workload.Interactive)
	traces := []*workload.Trace{p.Generate(60, Seed)}
	stale := VSyncConfig(dev, 3)
	stale.DropStaleBuffers = true
	for name, cfg := range map[string]sim.Config{
		"stale-dropping VSync":      stale,
		"D-VSync with no predictor": DVSyncConfig(dev, 4),
		"D-VSync switched off":      DVSyncConfig(dev, 4, func(c *sim.Config) { c.DisableDVSync = true }),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: avgFDPS returned instead of panicking", name)
				}
			}()
			avgFDPS(traces, cfg)
		}()
	}
}

// probeDiff describes the first field the recurrence's result disagrees on
// with the event simulator's run of the same trace, or returns "".
func probeDiff(got *vsyncrec.Result, want *sim.Result) string {
	if len(got.Janks) != len(want.Janks) {
		return fmt.Sprintf("%d janks, simulator %d", len(got.Janks), len(want.Janks))
	}
	for i, j := range got.Janks {
		if w := want.Janks[i]; j.EdgeSeq != w.EdgeSeq || j.KeyFrame != w.KeyFrame {
			return fmt.Sprintf("jank %d at edge %d key %t, simulator edge %d key %t",
				i, j.EdgeSeq, j.KeyFrame, w.EdgeSeq, w.KeyFrame)
		}
	}
	if got.FirstLatch != want.FirstLatch || got.LastLatch != want.LastLatch ||
		got.Presented != len(want.Presented) || got.Skipped != want.Skipped ||
		got.Completed != want.Completed || got.Jank() != want.Jank() {
		return fmt.Sprintf("latches %v..%v, %d presented, %d skipped, report %+v; simulator %v..%v, %d, %d, %+v",
			got.FirstLatch, got.LastLatch, got.Presented, got.Skipped, got.Jank(),
			want.FirstLatch, want.LastLatch, len(want.Presented), want.Skipped, want.Jank())
	}
	return ""
}

// TestSuiteProbesMatchSimulator renders the whole paper suite from a cold
// calibration cache with a checker beside every recurrence: each
// calibration probe's trace (FDPS and stutter searches alike) and each
// replica of every FDPS mean is re-run on a reused event-simulator Runner,
// and the recurrence must agree on every run.
func TestSuiteProbesMatchSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("renders all 23 experiments")
	}
	var checked [2]atomic.Int64 // by sim.Mode
	var mismatched atomic.Int64
	recurrenceOracle = func(cfg sim.Config) func(*workload.Trace, *vsyncrec.Result) {
		rn := runnerFor(cfg)
		return func(tr *workload.Trace, got *vsyncrec.Result) {
			checked[cfg.Mode].Add(1)
			if d := probeDiff(got, rn.RunTrace(tr)); d != "" && mismatched.Add(1) <= 5 {
				t.Errorf("%v, %d Hz, %d buffers, %d-frame %s trace: %s",
					cfg.Mode, cfg.Panel.RefreshHz, cfg.Buffers, tr.Len(), tr.Name, d)
			}
		}
	}
	defer func() { recurrenceOracle = nil }()
	resetCalibCache()
	for _, e := range Registry() {
		e.Run(io.Discard)
	}
	vs, dv := checked[sim.ModeVSync].Load(), checked[sim.ModeDVSync].Load()
	if vs == 0 || dv == 0 {
		t.Fatalf("%d VSync and %d D-VSync recurrence runs checked; want both", vs, dv)
	}
	if n := mismatched.Load(); n > 0 {
		t.Errorf("%d of %d recurrence runs disagree with the simulator", n, vs+dv)
	}
	t.Logf("%d VSync runs (calibration probes of %d searches and FDPS replicas) and %d D-VSync FDPS replicas checked",
		vs, calibSearches.Load(), dv)
}
