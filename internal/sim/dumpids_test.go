package sim

import (
	"slices"
	"strings"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/simtime"
)

// idsDigest is the config digest dump ids are named under in these
// tests; naming is not what they check.
const idsDigest = "0123456789abcdef"

// bareAndRingIDs runs cfg twice on freshly wired simulations, bare and
// under a default flight ring, at the given engine instant limit (0 keeps
// the default). It returns the ids the bare run derives and the ids the
// ring took.
func bareAndRingIDs(cfg Config, limit int) (derived, ring []string) {
	run := func(cfg Config) *System {
		sys := New(cfg)
		if limit > 0 {
			sys.Engine().SetInstantLimit(limit)
		}
		sys.Run()
		return sys
	}
	cfg.Recorder, cfg.Metrics, cfg.MetricsInterval = nil, nil, 0
	derived = run(cfg).dumpIDs(idsDigest)
	r := flight.New(flight.Config{})
	cfg.Recorder = r
	run(cfg)
	return derived, r.DumpIDs(idsDigest)
}

// TestDerivedDumpIDsFaultedSweep: over seeded variants of the faulted
// golden scenario in both modes, whole and cut by MaxSimTime at
// instants around every episode onset, the ids a bare run derives equal
// the ids a ring on the run takes. D-VSync runs reach the fallback
// trigger, and the cuts put onsets just before and just after the last
// recorded event.
func TestDerivedDumpIDsFaultedSweep(t *testing.T) {
	cuts := []float64{0, 503, 1180, 1306, 2104, 2810, 3706, 4580}
	p := goldenProfile()
	kinds := map[string]int{}
	for _, mode := range []Mode{ModeVSync, ModeDVSync} {
		for _, cut := range cuts {
			for seed := int64(0); seed < 40; seed++ {
				cfg := faultedGoldenConfig(mode)
				cfg.Trace = p.Generate(400, 1000+seed)
				cfg.Faults.Seed = seed
				cfg.MaxSimTime = simtime.FromMillis(cut)
				derived, ring := bareAndRingIDs(cfg, 0)
				if !slices.Equal(derived, ring) {
					t.Errorf("%v, cut %v ms, seed %d: derived %v, ring %v", mode, cut, seed, derived, ring)
				}
				for _, id := range ring {
					kinds[strings.SplitN(id, "-", 3)[2]]++
				}
			}
		}
	}
	for _, k := range []flight.TriggerKind{flight.TriggerFaultOnset, flight.TriggerJankBurst, flight.TriggerFallback} {
		if kinds[string(k)] == 0 {
			t.Errorf("the sweep took no %s dump (dump kinds %v)", k, kinds)
		}
	}
}

// tailConfig is a VSync run cut by MaxSimTime at 370 ms, with a stall
// episode opening at the given instant. The run's last present fence is
// at 316.7 ms, and its last recorded event is a pipeline event at
// 368.1 ms.
func tailConfig(onsetMs float64) Config {
	p := goldenProfile()
	return Config{Mode: ModeVSync, Panel: panel60(), Buffers: 3,
		Trace: p.Generate(400, 370), MaxSimTime: 370 * simtime.Millisecond,
		Faults: &fault.Config{Seed: 5, Stalls: []fault.Episode{
			{Start: msT(onsetMs), End: msT(767), Severity: 1}}}}
}

// TestDerivedDumpIDsTailRule: a fault onset becomes a dump exactly when
// an event at or after it is recorded, present fences included. An onset
// at 367 ms, after the last fence and the last jank but before a
// pipeline event, dumps; one at 369 ms, after every recorded event but
// before the horizon and the engine's final clock, does not.
func TestDerivedDumpIDsTailRule(t *testing.T) {
	for _, tc := range []struct {
		onsetMs float64
		dumps   bool
	}{{367, true}, {369, false}} {
		derived, ring := bareAndRingIDs(tailConfig(tc.onsetMs), 0)
		if !slices.Equal(derived, ring) {
			t.Errorf("onset at %v ms: derived %v, ring %v", tc.onsetMs, derived, ring)
		}
		onset := slices.ContainsFunc(ring, func(id string) bool {
			return strings.HasSuffix(id, "-"+string(flight.TriggerFaultOnset))
		})
		if onset != tc.dumps {
			t.Errorf("onset at %v ms: ring dumps %v, want a fault-onset dump: %v", tc.onsetMs, ring, tc.dumps)
		}
	}
}

// FuzzDerivedDumpIDs: for any valid run — either mode, any fault class
// at any severity and onset, any trace, a horizon cut, the fallback
// supervisor and a tight engine instant limit that trips the watchdog —
// the ids the bare run derives equal the ids a fresh ring takes.
func FuzzDerivedDumpIDs(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(255), uint16(367), int64(370), uint16(400), uint16(370), false, uint8(0))
	f.Add(uint8(0), uint8(0), uint8(255), uint16(369), int64(370), uint16(400), uint16(370), false, uint8(0))
	f.Add(uint8(1), uint8(0), uint8(200), uint16(500), int64(1234), uint16(400), uint16(0), true, uint8(0))
	f.Add(uint8(1), uint8(2), uint8(255), uint16(300), int64(7), uint16(300), uint16(2500), true, uint8(0))
	f.Add(uint8(0), uint8(1), uint8(128), uint16(100), int64(11), uint16(120), uint16(0), false, uint8(2))
	f.Add(uint8(1), uint8(7), uint8(0), uint16(0), int64(3), uint16(60), uint16(0), false, uint8(1))
	f.Fuzz(func(t *testing.T, mode, class, severity uint8, onsetMs uint16, seed int64,
		frames, cutMs uint16, fallback bool, limit uint8) {
		p := goldenProfile()
		cfg := Config{Mode: Mode(mode % 2), Panel: panel60(), Buffers: 3 + int(mode/2%3),
			Trace:          p.Generate(1+int(frames%400), seed),
			MaxSimTime:     simtime.Duration(cutMs) * simtime.Millisecond,
			EnableFallback: fallback,
			Health: health.Config{MaxFDPS: 6, MaxCalibErrMs: 12,
				StallTimeout: 250 * simtime.Millisecond}}
		if cfg.Mode == ModeDVSync {
			cfg.DTV.MaxAbsErrMs = 8
			cfg.FPEOverloadAfter = 4
		}
		if classes := fault.Classes(); int(class)%(len(classes)+1) < len(classes) {
			start := msT(float64(onsetMs % 5000))
			fc, err := fault.Scenario(classes[int(class)%(len(classes)+1)], float64(severity)/255,
				start, start.Add(700*simtime.Millisecond), seed)
			if err != nil {
				t.Skip(err)
			}
			cfg.Faults = fc
		}
		if Validate(cfg) != nil {
			t.Skip()
		}
		lim := 0
		if limit > 0 {
			lim = 1 + int(limit%4)
		}
		if derived, ring := bareAndRingIDs(cfg, lim); !slices.Equal(derived, ring) {
			t.Errorf("derived %v, ring %v", derived, ring)
		}
	})
}
