package sim

import (
	"bytes"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/ipl"
	"dvsync/internal/par"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/workload"
)

func telemetryConfig(mode Mode, faults *fault.Config, reg *telemetry.Registry) Config {
	p := workload.Profile{
		Name: "telemetry", ShortMeanMs: 6, ShortSigmaMs: 2.5,
		LongRatio: 0.1, LongScaleMs: 24, LongAlpha: 1.7,
		Burstiness: 0.35, UIShare: 0.4, Class: workload.Interactive,
	}
	return Config{
		Mode: mode, Panel: panel60(), Buffers: 4,
		Trace: p.Generate(240, 77), Predictor: ipl.Kalman{},
		Faults:  faults,
		Metrics: reg,
	}
}

// TestTelemetryCountersMatchResult: the live counters agree with the
// result the run returns — the registry is a second view of the same run,
// not an independent estimate.
func TestTelemetryCountersMatchResult(t *testing.T) {
	for _, mode := range []Mode{ModeVSync, ModeDVSync} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			res := Run(telemetryConfig(mode, nil, reg))
			snap := reg.Snapshot()
			byName := map[string]telemetry.MetricSnapshot{}
			for _, m := range snap.Metrics {
				byName[m.Name] = m
			}
			if got := byName[telemetry.MetricFramesPresented].Value; int(got) != len(res.Presented) {
				t.Errorf("frames_presented %v, want %d", got, len(res.Presented))
			}
			if got := byName[telemetry.MetricJanks].Value; int(got) != len(res.Janks) {
				t.Errorf("janks %v, want %d", got, len(res.Janks))
			}
			if got := byName[telemetry.MetricStaleDropped].Value; int(got) != res.StaleDropped {
				t.Errorf("stale_dropped %v, want %d", got, res.StaleDropped)
			}
			lat := byName[telemetry.MetricFrameLatencyMs]
			if int(lat.Count) != len(res.LatencyMs) {
				t.Errorf("latency count %d, want %d", lat.Count, len(res.LatencyMs))
			}
			var sum float64
			for _, v := range res.LatencyMs {
				sum += v
			}
			if lat.Sum != sum {
				t.Errorf("latency sum %v, want %v", lat.Sum, sum)
			}
			if len(snap.Series.Rows) == 0 {
				t.Fatal("no sampled rows")
			}
			last := snap.Series.Rows[len(snap.Series.Rows)-1]
			if last.AtNs != snap.AtNs {
				t.Errorf("snapshot at %d, last row at %d", snap.AtNs, last.AtNs)
			}
		})
	}
}

// TestTelemetryZeroSampleAtStart: the row at t=0 is taken once every
// event at t=0 has fired, so row 0 reflects the first edge.
func TestTelemetryZeroSampleAtStart(t *testing.T) {
	reg := telemetry.NewRegistry()
	Run(telemetryConfig(ModeDVSync, nil, reg))
	s := reg.Series()
	if len(s.Rows) == 0 || s.Rows[0].At != 0 {
		t.Fatalf("first sample at %v, want 0", s.Rows[0].At)
	}
	edgeCol := -1
	for i, c := range s.Columns {
		if c == telemetry.MetricEdges {
			edgeCol = i
		}
	}
	if edgeCol < 0 {
		t.Fatal("edges column missing")
	}
	if got := s.Rows[0].Values[edgeCol]; got != 1 {
		t.Errorf("edges at t=0 sample = %v, want 1 (edge fires before the row is taken)", got)
	}
}

// TestValidateMetricsConfig: interval without registry, negative
// intervals and a negative MaxSimTime are configuration errors, not
// silent no-ops.
func TestValidateMetricsConfig(t *testing.T) {
	cfg := telemetryConfig(ModeVSync, nil, nil)
	cfg.MetricsInterval = simtime.FromMillis(5)
	if _, err := TryRun(cfg); err == nil {
		t.Error("MetricsInterval without Metrics accepted")
	}
	cfg = telemetryConfig(ModeVSync, nil, telemetry.NewRegistry())
	cfg.MetricsInterval = -1
	if _, err := TryRun(cfg); err == nil {
		t.Error("negative MetricsInterval accepted")
	}
	cfg = telemetryConfig(ModeVSync, nil, telemetry.NewRegistry())
	cfg.MaxSimTime = -1
	if _, err := TryRun(cfg); err == nil {
		t.Error("negative MaxSimTime accepted")
	}
}

// renderTelemetry runs `runs` identical simulations through par.Map under
// the given worker count and renders each run's Prometheus exposition and
// JSON snapshot to bytes.
func renderTelemetry(t *testing.T, workers, runs int, faulted bool) [][]byte {
	t.Helper()
	par.SetWorkers(workers)
	defer par.SetWorkers(0)
	out := par.Map(runs, func(i int) []byte {
		var faults *fault.Config
		if faulted {
			fc, err := fault.Scenario("stall", 0.6, 0, simtime.Time(4*simtime.Second), 99)
			if err != nil {
				panic(err)
			}
			faults = fc
		}
		reg := telemetry.NewRegistry()
		Run(telemetryConfig(ModeDVSync, faults, reg))
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			panic(err)
		}
		buf.WriteByte('\n')
		if err := reg.WriteJSON(&buf); err != nil {
			panic(err)
		}
		return buf.Bytes()
	})
	return out
}

// TestTelemetryDeterministicAcrossWorkers is the histogram-determinism
// gate: the same seed and scenario produce byte-identical Prometheus
// exposition and JSON snapshot whether runs are fanned out at -workers 1
// or 4, with and without fault injection.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "clean"
		if faulted {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			serial := renderTelemetry(t, 1, 4, faulted)
			wide := renderTelemetry(t, 4, 4, faulted)
			if len(serial[0]) == 0 {
				t.Fatal("empty exposition")
			}
			for i := range serial {
				if !bytes.Equal(serial[i], serial[0]) {
					t.Fatalf("run %d diverged from run 0 at workers=1", i)
				}
				if !bytes.Equal(wide[i], serial[0]) {
					t.Fatalf("run %d at workers=4 diverged from workers=1 (%d vs %d bytes)",
						i, len(wide[i]), len(serial[0]))
				}
			}
		})
	}
}
