package sim

import (
	"slices"
	"testing"

	"dvsync/internal/flight"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// observerSet is one way of attaching observers to a scenario.
type observerSet struct {
	name  string
	apply func(*Config)
}

// pinnedSets are the observer sets TestObserverOutputsPinned digests every
// golden scenario under: as configured, plus a registry on the default
// interval, on a 7 ms interval off the edge grid, and without a recorder.
var pinnedSets = []observerSet{
	{"as-configured", func(*Config) {}},
	{"metrics", func(c *Config) { c.Metrics = telemetry.NewRegistry() }},
	{"metrics-7ms", func(c *Config) {
		c.Metrics = telemetry.NewRegistry()
		c.MetricsInterval = 7 * simtime.Millisecond
	}},
	{"metrics-no-recorder", func(c *Config) {
		c.Metrics = telemetry.NewRegistry()
		c.Recorder = nil
	}},
}

// observerPins are the digests of every observer output of the golden
// scenarios, keyed scenario/set. "flight-dumps" digests the sealed dumps
// of a run with a flight ring and a registry.
var observerPins = map[string]string{
	"vsync-steady/as-configured":                  "28c94b1a9137bd8898e4ef2cdea327b87caef48a507c37a59cf9a4034792546e",
	"vsync-steady/metrics":                        "65c5af0c58c790c43e13ec13447d3ff55c9fd3e7a5b439c3ee039ee959190e74",
	"vsync-steady/metrics-7ms":                    "842c2c595b98dec89fb82c1446d29f4c75cda42a2693f08a79c395e16f6c5b07",
	"vsync-steady/metrics-no-recorder":            "3d65e7b6cd40772802bbfe9b5c50a87a36281c52e6cc9adeb6b17eefae94048d",
	"vsync-steady/flight-dumps":                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"dvsync-steady/as-configured":                 "e304122184938bfa346a9abc6f580514a53d826b117b0babb37ed6143c849c83",
	"dvsync-steady/metrics":                       "031023618aa821a5472c99275665cf40642b36028156e21664bc71de3dd8f3cb",
	"dvsync-steady/metrics-7ms":                   "2338698eafb4ae9ce6c865cecfd4565d06a8eb6894a0a532bf8484353148318f",
	"dvsync-steady/metrics-no-recorder":           "795bbb0e912aa234a44121e083343624d36d6c99aec5bbc1698511ca9a34daed",
	"dvsync-steady/flight-dumps":                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"dvsync-faulted-fallback/as-configured":       "86dc68a09af10b49c089be3c97c99888e01d86f3a8eba7617ead3fbf474fa7e9",
	"dvsync-faulted-fallback/metrics":             "7174cad108c650f74eb930daf98c60da85274babcd2c8dff113dc56db5a4167a",
	"dvsync-faulted-fallback/metrics-7ms":         "1935f8c615f6265c50958cbfe7334422152a0f0f14aabe6c69a428122266a7ef",
	"dvsync-faulted-fallback/metrics-no-recorder": "cbee2b0818588853059710a6904b57c2f3a389152f2cce5527d31f537c845466",
	"dvsync-faulted-fallback/flight-dumps":        "ca5b03fef1eee46cde432ad7dfb88c3296501c0df7db5ec458f549061758bcd6",
	"vsync-faulted/as-configured":                 "175bd03ec3a6d87d4780d546c09928127b68854138dffd94ba7e0f26f96e60f0",
	"vsync-faulted/metrics":                       "8bfa4a40cc3123e44b8e5ea1b788b1dfd73a0396ba17093ce37830134a9cf89a",
	"vsync-faulted/metrics-7ms":                   "02ac0d5a2eef96cef6c66c7456763ce009cbb1016e62d001b68537d8820225f4",
	"vsync-faulted/metrics-no-recorder":           "bb6761e9b4632aeeaf7d8ef5e9e0649a53514320ed7d0dd9bc8c944b23518d99",
	"vsync-faulted/flight-dumps":                  "eb8ed83c051ef284cc933dd7e50caaedba921277572646e79aa415b612696fb3",
	"vsync-stale-drop/as-configured":              "ac85a7cb15b9db8fe0e2cb469dc1a3f40be3276ee1707c4c5bbc2e485be7476f",
	"vsync-stale-drop/metrics":                    "bebe24c787a20361dcd8ef3c12577bbbd6f2744e2eb8f17202521c7eca35363c",
	"vsync-stale-drop/metrics-7ms":                "142abc6e39e2c45fa401f5bcbc965443e3edb1a7685426a144323ec9ef050653",
	"vsync-stale-drop/metrics-no-recorder":        "18a24ee2dc249b0a0a314f60a64765618b56fddbc1eb1c3859b05c8624d8c594",
	"vsync-stale-drop/flight-dumps":               "6fc3ab3b8b3f3644e96333016048a3422b7f4a79672c498e4675ce99cddb0aff",
	"jitter-skew-offset/as-configured":            "55c5461c8774d077a0ebdee909a89eb17c4b8f88c643786338e87f3cdc443506",
	"jitter-skew-offset/metrics":                  "91b5dc8a58c00bf603f8b283eb31ebfe95d218212160ea13ba96e717a5c9badf",
	"jitter-skew-offset/metrics-7ms":              "d87e4f656addb55901988060c7830fbdf4fb2e7172d1b2d3b76b07888ed9c389",
	"jitter-skew-offset/metrics-no-recorder":      "6842f129b4299de23d13a4e6a1364517ee63c6c6a876c9a8f5dc7cb69fe983c4",
	"jitter-skew-offset/flight-dumps":             "975c74f40ca37bdd9b56453b6aede5ba0321e30f5e128f7af0aa781e7c63b8b7",
	"dvsync-ltpo/as-configured":                   "93b177a859676db5a172d454ef4fbc59f33cca6d0d479a22c6b021d579db4631",
	"dvsync-ltpo/metrics":                         "f68dae3ecc8600615377c34eda7cd332431eeb12243c997878dc7bf02eaf1c5e",
	"dvsync-ltpo/metrics-7ms":                     "af24e0822c5bf47c9bd005cd23f2e4eed080df7b7c5463eb3f35d4fb6c402700",
	"dvsync-ltpo/metrics-no-recorder":             "f31d3d6c3a1c4d06a1f8175c09426b02fa188fb9b32ec201da9f8a873a7ad2c3",
	"dvsync-ltpo/flight-dumps":                    "88392da452c476a4e307a84ba9846034a2334b40ae4a7f1c3cd96590100ce831",
	"dvsync-metrics/as-configured":                "031023618aa821a5472c99275665cf40642b36028156e21664bc71de3dd8f3cb",
	"dvsync-metrics/metrics":                      "031023618aa821a5472c99275665cf40642b36028156e21664bc71de3dd8f3cb",
	"dvsync-metrics/metrics-7ms":                  "2338698eafb4ae9ce6c865cecfd4565d06a8eb6894a0a532bf8484353148318f",
	"dvsync-metrics/metrics-no-recorder":          "795bbb0e912aa234a44121e083343624d36d6c99aec5bbc1698511ca9a34daed",
	"dvsync-metrics/flight-dumps":                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

// TestObserverOutputsPinned pins trace JSONL, Perfetto, telemetry JSON and
// Prometheus bytes, result summaries and anomaly dumps across versions. The determinism tests compare two runs of one build;
// these digests catch a change that shifts every run the same way.
func TestObserverOutputsPinned(t *testing.T) {
	check := func(key, got string) {
		t.Helper()
		if want := observerPins[key]; got != want {
			t.Errorf("%s: digest %s, pinned %q", key, got, want)
		}
	}
	for _, sc := range goldenScenarios() {
		for _, set := range pinnedSets {
			cfg := sc.mk()
			set.apply(&cfg)
			res, err := TryRun(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, set.name, err)
			}
			got, err := outputsDigest(cfg, res)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, set.name, err)
			}
			check(sc.name+"/"+set.name, got)
		}

		cfg := sc.mk()
		cfg.Recorder = flight.New(flight.Config{})
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := TryRun(cfg); err != nil {
			t.Fatalf("%s/flight-dumps: %v", sc.name, err)
		}
		got, err := flightDigest(cfg)
		if err != nil {
			t.Fatalf("%s/flight-dumps: %v", sc.name, err)
		}
		check(sc.name+"/flight-dumps", got)
	}
}

// teeSink records into a plain recorder and a flight ring at once, so one
// run carries every observer kind.
type teeSink struct {
	*trace.Recorder
	ring *flight.Ring
}

func (s *teeSink) Add(ev trace.Event) {
	s.Recorder.Add(ev)
	s.ring.Add(ev)
}

func (s *teeSink) Reset() {
	s.Recorder.Reset()
	s.ring.Reset()
}

func (s *teeSink) TripWatchdog(at simtime.Time, detail string) { s.ring.TripWatchdog(at, detail) }

// horizonCutConfig runs 120 scripted 5 ms frames at 60 Hz with three
// buffers, cut by MaxSimTime at 500 ms: about 30 frames present before the
// horizon ends the run.
func horizonCutConfig(mode Mode) Config {
	return Config{Mode: mode, Panel: panel60(), Buffers: 3,
		Trace: scripted("horizon-cut", repeat(5, 120)...), MaxSimTime: 500 * simtime.Millisecond}
}

// watchdogConfig renders six 5 ms frames, then one that finishes rendering
// exactly on a refresh edge. With a zero VSync-app offset that is the only
// instant firing two engine events, so an instant limit of 2 trips the
// watchdog there, with frames latched and their fences pending.
func watchdogConfig(mode Mode) Config {
	tr := scripted("watchdog", repeat(5, 6)...)
	tr.Costs = append(tr.Costs, workload.Cost{UI: 5 * simtime.Millisecond,
		RS: simtime.PeriodForHz(60) - 5*simtime.Millisecond, Class: workload.Deterministic})
	tr.Costs = append(tr.Costs, scripted("", repeat(5, 6)...).Costs...)
	return Config{Mode: mode, Panel: panel60(), Buffers: 3, Trace: tr}
}

// TestObserversLeaveRunUnchanged: attaching a recorder, a flight ring, a
// telemetry registry or all three fires exactly the bare run's engine
// events and returns the same result, and every latched frame is recorded
// presenting exactly once — also when the horizon or the watchdog ends
// the run. The dump ids the bare run derives are the ones the flight
// ring takes.
func TestObserversLeaveRunUnchanged(t *testing.T) {
	type scenario struct {
		name  string
		mk    func() Config
		limit int // engine instant limit; 0 keeps the default
	}
	var scs []scenario
	for _, sc := range goldenScenarios() {
		scs = append(scs, scenario{name: sc.name, mk: sc.mk})
	}
	for _, mode := range []Mode{ModeVSync, ModeDVSync} {
		scs = append(scs,
			scenario{name: "horizon-cut-" + mode.String(),
				mk: func() Config { return horizonCutConfig(mode) }},
			scenario{name: "watchdog-" + mode.String(),
				mk: func() Config { return watchdogConfig(mode) }, limit: 2})
	}
	sets := []observerSet{
		{"recorder", func(c *Config) { c.Recorder = trace.NewRecorder() }},
		{"flight", func(c *Config) { c.Recorder = flight.New(flight.Config{}) }},
		{"metrics", func(c *Config) { c.Metrics = telemetry.NewRegistry() }},
		{"all", func(c *Config) {
			c.Recorder = &teeSink{Recorder: trace.NewRecorder(), ring: flight.New(flight.Config{})}
			c.Metrics = telemetry.NewRegistry()
		}},
	}
	bareOf := func(mk func() Config) Config {
		cfg := mk()
		cfg.Recorder, cfg.Metrics, cfg.MetricsInterval = nil, nil, 0
		return cfg
	}
	for _, sc := range scs {
		t.Run(sc.name, func(t *testing.T) {
			run := func(cfg Config) (*System, *Result) {
				sys := New(cfg)
				if sc.limit > 0 {
					sys.Engine().SetInstantLimit(sc.limit)
				}
				return sys, sys.Run()
			}
			sys, res := run(bareOf(sc.mk))
			if sc.limit > 0 && (res.WatchdogTripped == "" || len(res.Presented) == 0) {
				t.Fatalf("bare run: watchdog %q after %d presented frames, want a trip mid-run",
					res.WatchdogTripped, len(res.Presented))
			}
			want := resultLine(res)
			wantFired := sys.Engine().Fired()
			const digest = "0123456789abcdef"
			derived := sys.dumpIDs(digest)
			for _, set := range sets {
				cfg := bareOf(sc.mk)
				set.apply(&cfg)
				sys, res := run(cfg)
				if got := resultLine(res); got != want {
					t.Errorf("%s: result differs from the bare run\n got %s\nwant %s", set.name, got, want)
				}
				if got := sys.Engine().Fired(); got != wantFired {
					t.Errorf("%s: engine fired %d events, bare run %d", set.name, got, wantFired)
				}
				var events []trace.Event
				switch r := cfg.Recorder.(type) {
				case *trace.Recorder:
					events = r.Events()
				case *teeSink:
					events = r.Events()
					if got := r.ring.DumpIDs(digest); !slices.Equal(derived, got) {
						t.Errorf("%s: bare run derives dump ids %v, the ring took %v", set.name, derived, got)
					}
				case *flight.Ring:
					if got := r.DumpIDs(digest); !slices.Equal(derived, got) {
						t.Errorf("%s: bare run derives dump ids %v, the ring took %v", set.name, derived, got)
					}
				}
				counts := map[int][2]int{} // frame → {latched, presented}
				var frames []int
				for _, ev := range events {
					c, seen := counts[ev.Frame]
					switch ev.Kind {
					case trace.FrameLatched:
						c[0]++
					case trace.FramePresent:
						c[1]++
					default:
						continue
					}
					if !seen {
						frames = append(frames, ev.Frame)
					}
					counts[ev.Frame] = c
				}
				for _, f := range frames {
					if c := counts[f]; c != [2]int{1, 1} {
						t.Errorf("%s: frame %d latched %d times and presented %d times, want once each",
							set.name, f, c[0], c[1])
					}
				}
			}
		})
	}
}
