package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dvsync/internal/fault"
	"dvsync/internal/health"
	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

func msT(x float64) simtime.Time { return simtime.Time(simtime.FromMillis(x)) }

func TestValidateFaultConfigs(t *testing.T) {
	base := func() Config {
		return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 5,
			Trace: scripted("v", repeat(5, 10)...)}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error; "" means valid
	}{
		{"fault-free", func(*Config) {}, ""},
		{"buffers at the bound", func(c *Config) { c.Buffers = MaxBuffers }, ""},
		{"too many buffers", func(c *Config) { c.Buffers = MaxBuffers + 1 }, "exceed the bound"},
		{"valid faults", func(c *Config) {
			c.Faults = &fault.Config{Stalls: []fault.Episode{{Start: msT(10), End: msT(50), Severity: 1}}}
		}, ""},
		{"negative severity", func(c *Config) {
			c.Faults = &fault.Config{Stalls: []fault.Episode{{Start: 0, End: msT(50), Severity: -2}}}
		}, "negative severity"},
		{"overlapping episodes", func(c *Config) {
			c.Faults = &fault.Config{AllocFail: []fault.Episode{
				{Start: 0, End: msT(50), Severity: 0.1},
				{Start: msT(40), End: msT(90), Severity: 0.2},
			}}
		}, "overlapping"},
		{"zero fallback threshold", func(c *Config) {
			c.EnableFallback = true // Health.MaxFDPS left zero
		}, "threshold must be positive"},
		{"valid fallback", func(c *Config) {
			c.EnableFallback = true
			c.Health = health.Config{MaxFDPS: 5}
		}, ""},
		{"fallback on VSync path", func(c *Config) {
			c.Mode = ModeVSync
			c.Buffers = 3
			c.EnableFallback = true
			c.Health = health.Config{MaxFDPS: 5}
		}, "requires D-VSync"},
		{"negative overload threshold", func(c *Config) {
			c.FPEOverloadAfter = -1
		}, "overload"},
		{"negative recovery threshold", func(c *Config) {
			c.FPERecoverAfter = -3
		}, "recovery"},
		// JSON has no NaN or ±Inf, so every float ConfigDigest reads must
		// be finite; Health is digested with fallback off too.
		{"NaN period skew", func(c *Config) { c.Panel.PeriodSkewPPM = math.NaN() }, "non-finite"},
		{"infinite DTV smoothing", func(c *Config) { c.DTV.PeriodSmoothing = math.Inf(1) }, "non-finite"},
		{"NaN DTV rate tolerance", func(c *Config) { c.DTV.RateChangeTolerance = math.NaN() }, "non-finite"},
		{"-Inf DTV error bound", func(c *Config) { c.DTV.MaxAbsErrMs = math.Inf(-1) }, "non-finite"},
		{"NaN fallback threshold, fallback off", func(c *Config) { c.Health.MaxFDPS = math.NaN() }, "non-finite"},
		{"infinite calibration bound, fallback off", func(c *Config) {
			c.Health.MaxCalibErrMs = math.Inf(1)
		}, "non-finite"},
		{"infinite fallback threshold", func(c *Config) {
			c.EnableFallback = true
			c.Health = health.Config{MaxFDPS: math.Inf(1)}
		}, "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			err := Validate(cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// Buffer conservation under random allocation-failure sequences: whatever
// the fault stream does, every pool slot stays in exactly one lifecycle
// state, the run completes, and every trace index is either presented or
// (VSync only) skipped.
func TestBufferConservationUnderAllocFaults(t *testing.T) {
	prop := func(seed int64, sevRaw uint8, mode bool) bool {
		sev := float64(sevRaw%10) / 10 // 0.0 … 0.9
		cfg := Config{
			Mode:    ModeVSync,
			Panel:   panel60(),
			Buffers: 3,
			Trace:   scripted("alloc-prop", repeat(5, 90)...),
			Faults: &fault.Config{
				Seed: seed,
				AllocFail: []fault.Episode{
					{Start: msT(200), End: msT(900), Severity: sev},
				},
			},
		}
		if mode {
			cfg.Mode = ModeDVSync
			cfg.Buffers = 5
		}
		s := New(cfg)
		r := s.Run()
		if err := s.Queue().CheckInvariants(); err != nil {
			t.Logf("invariants violated (seed=%d sev=%.1f mode=%v): %v", seed, sev, cfg.Mode, err)
			return false
		}
		if !r.Completed {
			t.Logf("run did not complete (seed=%d sev=%.1f mode=%v)", seed, sev, cfg.Mode)
			return false
		}
		if sev > 0 && r.AllocFailed != r.FaultCounters.AllocFailures {
			t.Logf("alloc accounting mismatch: queue=%d injector=%d", r.AllocFailed, r.FaultCounters.AllocFailures)
			return false
		}
		n := cfg.Trace.Len()
		if cfg.Mode == ModeDVSync {
			if len(r.Presented) != n {
				t.Logf("D-VSync presented %d of %d", len(r.Presented), n)
				return false
			}
			return true
		}
		if len(r.Presented)+r.Skipped != n {
			t.Logf("VSync presented %d + skipped %d != %d", len(r.Presented), r.Skipped, n)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// fallbackScenario is the scripted degradation used by the golden fallback
// test: a healthy lead-in, a sustained overload burst that trips the FDPS
// watchdog, then a long healthy tail for the hysteresis recovery.
func fallbackScenario(rec *trace.Recorder) Config {
	// 35 ms total is 22.75 ms in the RS stage alone — beyond one 60 Hz
	// period, so the pipelined producer genuinely falls behind (a 25 ms
	// frame would not: its longest stage still fits a period).
	costs := append(append(repeat(5, 30), repeat(35, 25)...), repeat(5, 60)...)
	cfg := Config{
		Mode:           ModeDVSync,
		Panel:          panel60(),
		Buffers:        5,
		Trace:          scripted("fallback", costs...),
		EnableFallback: true,
		Health: health.Config{
			Window:       200 * simtime.Millisecond,
			MaxFDPS:      10,
			RecoverAfter: 300 * simtime.Millisecond,
		},
	}
	if rec != nil {
		// Assign only when present: a typed-nil *Recorder inside the Sink
		// interface would defeat the Recorder != nil guards.
		cfg.Recorder = rec
	}
	return cfg
}

// TestGoldenFallbackScenario pins the exact supervised-fallback behaviour:
// the trip edge, the recovery edge, and the digest of the full event trace.
// Any timing change in the control path shows up here first.
func TestGoldenFallbackScenario(t *testing.T) {
	rec := trace.NewRecorder()
	r := Run(fallbackScenario(rec))
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if len(r.Fallbacks) != 2 {
		t.Fatalf("fallbacks = %d, want trip + recovery", len(r.Fallbacks))
	}
	trip, recov := r.Fallbacks[0], r.Fallbacks[1]
	if trip.To != ModeVSync || trip.Reason != health.ReasonFDPS {
		t.Fatalf("trip = {to %v, reason %v}, want VSync/fdps", trip.To, trip.Reason)
	}
	if recov.To != ModeDVSync || recov.Reason != health.ReasonNone {
		t.Fatalf("recovery = {to %v, reason %v}, want D-VSync/none", recov.To, recov.Reason)
	}
	// Golden timings: pinned from the deterministic engine. The trip lands
	// on the edge where the overload burst has janked past MaxFDPS; the
	// recovery lands RecoverAfter of clean edges later.
	const wantTrip, wantRecov = "733.333ms", "1333.333ms"
	if got := fmt.Sprint(trip.At); got != wantTrip {
		t.Errorf("trip at %s, want %s", got, wantTrip)
	}
	if got := fmt.Sprint(recov.At); got != wantRecov {
		t.Errorf("recovery at %s, want %s", got, wantRecov)
	}
	// While the fallback held, frames must have been produced on the VSync
	// channel; after recovery, decoupled production resumes.
	if r.DecoupledFrames == 0 || r.VSyncPathFrames == 0 {
		t.Fatalf("channel split decoupled=%d vsync=%d, want both non-zero",
			r.DecoupledFrames, r.VSyncPathFrames)
	}
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	// Digest of the schema-v2 trace (v2 added frame-ui-done events).
	const wantDigest = "2f4c882cba8e686d"
	if got := hex.EncodeToString(sum[:8]); got != wantDigest {
		t.Errorf("trace digest = %s, want %s", got, wantDigest)
	}
}

// Mid-run fallback preserves pipeline invariants: re-run the golden
// scenario and check the queue after the dust settles. While the fallback
// holds, the app is on time-based VSync triggering, so overloaded slots are
// skipped like the baseline — presented + skipped must still cover the
// whole trace.
func TestFallbackPreservesInvariants(t *testing.T) {
	s := New(fallbackScenario(nil))
	r := s.Run()
	if err := s.Queue().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if got, n := len(r.Presented)+r.Skipped, s.cfg.Trace.Len(); got != n {
		t.Fatalf("presented %d + skipped %d != %d", len(r.Presented), r.Skipped, n)
	}
	if r.Skipped == 0 {
		t.Fatal("overload burst skipped nothing: fallback is not on the time-based path")
	}
}
