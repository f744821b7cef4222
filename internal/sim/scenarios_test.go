package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/health"
	"dvsync/internal/ipl"
	"dvsync/internal/ltpo"
	"dvsync/internal/obs"
	"dvsync/internal/par"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// goldenScenario is one scenario of the golden set that the reuse,
// observer, flight-dump and parallel-width contracts run over. mk must
// build a FRESH config on every call (recorder and registry are
// stateful).
type goldenScenario struct {
	name string
	mk   func() Config
}

// goldenProfile is the golden scenarios' workload. Its name enters every
// trace and so every pinned digest (observerPins, TestConfigDigestPinned),
// which is why it keeps the name "checkpoint".
func goldenProfile() workload.Profile {
	return workload.Profile{
		Name: "checkpoint", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive,
	}
}

func faultedGoldenConfig(mode Mode) Config {
	p := goldenProfile()
	cfg := Config{
		Mode: mode, Panel: panel60(), Buffers: 4,
		Trace:     p.Generate(400, 1234),
		Predictor: ipl.Kalman{},
		Recorder:  trace.NewRecorder(),
		Faults: &fault.Config{
			Seed:        99,
			Stalls:      []fault.Episode{{Start: msT(500), End: msT(1200), Severity: 1.5}},
			VSyncJitter: []fault.Episode{{Start: msT(1300), End: msT(2000), Severity: 1}},
			MissedVSync: []fault.Episode{{Start: msT(2100), End: msT(2700), Severity: 0.3}},
			ClockDrift:  []fault.Episode{{Start: msT(2800), End: msT(3600), Severity: 2000}},
			AllocFail:   []fault.Episode{{Start: msT(3700), End: msT(4400), Severity: 0.4}},
		},
	}
	if mode == ModeDVSync {
		cfg.DTV.MaxAbsErrMs = 8
		cfg.FPEOverloadAfter = 4
		cfg.EnableFallback = true
		cfg.Health = health.Config{MaxFDPS: 6, MaxCalibErrMs: 12,
			StallTimeout: 250 * simtime.Millisecond}
	}
	return cfg
}

func ltpoGoldenConfig() Config {
	p := goldenProfile()
	panel := panel60()
	panel.RefreshHz = 120
	return Config{
		Mode: ModeDVSync, Panel: panel, Buffers: 4,
		Trace:      p.Generate(400, 5),
		LTPOPolicy: ltpo.DefaultUIPolicy(),
		LTPOVelocity: func(tt simtime.Time) float64 {
			return 3000 * math.Exp(-tt.Seconds()*1.2)
		},
		Recorder: trace.NewRecorder(),
	}
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			name: "vsync-steady",
			mk: func() Config {
				p := goldenProfile()
				return Config{Mode: ModeVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-steady",
			mk: func() Config {
				p := goldenProfile()
				return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Predictor: ipl.Kalman{},
					Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-faulted-fallback",
			mk:   func() Config { return faultedGoldenConfig(ModeDVSync) },
		},
		{
			name: "vsync-faulted",
			mk:   func() Config { return faultedGoldenConfig(ModeVSync) },
		},
		{
			name: "vsync-stale-drop",
			mk: func() Config {
				costs := repeat(5, 40)
				costs = append(costs, repeat(34, 12)...)
				costs = append(costs, repeat(5, 60)...)
				return Config{Mode: ModeVSync, Panel: panel60(), Buffers: 4,
					Trace:            scripted("stale", costs...),
					DropStaleBuffers: true, Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "jitter-skew-offset",
			mk: func() Config {
				p := goldenProfile()
				panel := panel60()
				panel.JitterStdDev = 80 * simtime.Microsecond
				panel.JitterSeed = 42
				panel.PeriodSkewPPM = 350
				return Config{Mode: ModeDVSync, Panel: panel, Buffers: 4,
					Trace: p.Generate(300, 11), AppOffset: 2 * simtime.Millisecond,
					Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-ltpo",
			mk:   ltpoGoldenConfig,
		},
		{
			name: "dvsync-metrics",
			mk: func() Config {
				p := goldenProfile()
				return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Predictor: ipl.Kalman{},
					Recorder: trace.NewRecorder(), Metrics: telemetry.NewRegistry()}
			},
		},
	}
}

func frameSeqs(r *Result) []int {
	out := make([]int, len(r.Presented))
	for i, f := range r.Presented {
		out[i] = f.Seq
	}
	return out
}

// outputsDigest folds every observable output of a finished run — trace
// JSONL, Perfetto export, telemetry JSON + Prometheus exposition, and the
// full result summary — into one hex digest.
func outputsDigest(cfg Config, r *Result) (string, error) {
	var buf bytes.Buffer
	if cfg.Recorder != nil {
		if err := trace.WriteEventsJSONL(&buf, cfg.Recorder.Events()); err != nil {
			return "", fmt.Errorf("trace: %w", err)
		}
		if err := obs.ExportPerfetto(cfg.Recorder, &buf); err != nil {
			return "", fmt.Errorf("perfetto: %w", err)
		}
	}
	if cfg.Metrics != nil {
		if err := cfg.Metrics.WriteJSON(&buf); err != nil {
			return "", fmt.Errorf("telemetry json: %w", err)
		}
		if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
			return "", fmt.Errorf("telemetry prom: %w", err)
		}
	}
	buf.WriteString(resultLine(r))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// resultLine renders the full result summary outputsDigest folds in.
func resultLine(r *Result) string {
	return fmt.Sprintf("fdps=%v janks=%+v skipped=%d presented=%v stuffed=%d direct=%d "+
		"decoupled=%d vsyncpath=%d work=%v overhead=%v latency=%v fallbacks=%+v "+
		"counters=%+v missed=%d allocfailed=%d reanchors=%d dtvmissed=%d backoffs=%d "+
		"startfail=%d stale=%d completed=%v edges=%d first=%v last=%v watchdog=%q\n",
		r.FDPS(), r.Janks, r.Skipped, frameSeqs(r), r.Stuffed, r.Direct,
		r.DecoupledFrames, r.VSyncPathFrames, r.ExecutedWork, r.OverheadWork,
		r.LatencyMs, r.Fallbacks, r.FaultCounters, r.MissedEdges, r.AllocFailed,
		r.DTVReAnchors, r.DTVMissedEdges, r.FPEBackoffs, r.FPEStartFailures,
		r.StaleDropped, r.Completed, r.EdgesInWindow, r.FirstLatch, r.LastLatch,
		r.WatchdogTripped)
}

// freshDigest runs a scenario on a freshly wired System.
func freshDigest(mk func() Config) (string, error) {
	cfg := mk()
	res, err := TryRun(cfg)
	if err != nil {
		return "", err
	}
	return outputsDigest(cfg, res)
}

// TestGoldenDigestsAcrossWorkers: every golden scenario digests the same
// at -workers 1 and 4. A run shares no state across goroutines, so its
// outputs must not depend on the parallel width a sweep runs under.
func TestGoldenDigestsAcrossWorkers(t *testing.T) {
	scs := goldenScenarios()
	type out struct {
		digest string
		err    error
	}
	runAll := func() []out {
		return par.Map(len(scs), func(i int) out {
			var o out
			o.digest, o.err = freshDigest(scs[i].mk)
			return o
		})
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(1)
	serial := runAll()
	par.SetWorkers(4)
	wide := runAll()
	for i, sc := range scs {
		if serial[i].err != nil || wide[i].err != nil {
			t.Fatalf("%s: %v at workers=1, %v at workers=4", sc.name, serial[i].err, wide[i].err)
		}
		if serial[i].digest != wide[i].digest {
			t.Errorf("%s: digest %s at workers=1, %s at workers=4", sc.name, serial[i].digest, wide[i].digest)
		}
	}
}
