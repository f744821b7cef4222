package fault

import (
	"math"
	"strings"
	"testing"

	"dvsync/internal/simtime"
)

func ms(x float64) simtime.Time { return simtime.Time(simtime.FromMillis(x)) }

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"empty", Config{}, ""},
		{"valid stall", Config{Stalls: []Episode{{Start: ms(1), End: ms(2), Severity: 1.5}}}, ""},
		{"inverted window", Config{Stalls: []Episode{{Start: ms(2), End: ms(1), Severity: 1}}},
			"empty or inverted"},
		{"empty window", Config{AllocFail: []Episode{{Start: ms(2), End: ms(2), Severity: 0.5}}},
			"empty or inverted"},
		{"negative severity", Config{VSyncJitter: []Episode{{Start: 0, End: ms(1), Severity: -0.1}}},
			"negative severity"},
		{"probability over one", Config{MissedVSync: []Episode{{Start: 0, End: ms(1), Severity: 1.5}}},
			"probability"},
		{"NaN severity", Config{Stalls: []Episode{{Start: 0, End: ms(1), Severity: math.NaN()}}},
			"non-finite"},
		{"infinite severity", Config{ClockDrift: []Episode{{Start: 0, End: ms(1), Severity: math.Inf(1)}}},
			"non-finite"},
		{"overlapping windows", Config{AllocFail: []Episode{
			{Start: ms(0), End: ms(5), Severity: 0.2},
			{Start: ms(4), End: ms(9), Severity: 0.3},
		}}, "overlapping"},
		{"disjoint windows ok", Config{AllocFail: []Episode{
			{Start: ms(5), End: ms(9), Severity: 0.2},
			{Start: ms(0), End: ms(5), Severity: 0.3},
		}}, ""},
		{"overlap across unsorted input", Config{ClockDrift: []Episode{
			{Start: ms(10), End: ms(20), Severity: 100},
			{Start: ms(0), End: ms(11), Severity: 100},
		}}, "overlapping"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestEnabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	c.InputBurst = []Episode{{Start: 0, End: ms(1), Severity: 10}}
	if !c.Enabled() {
		t.Fatal("configured burst not reported enabled")
	}
}

func TestCostScaleWindowing(t *testing.T) {
	in := NewInjector(Config{Stalls: []Episode{{Start: ms(10), End: ms(20), Severity: 2}}})
	if got := in.CostScale(ms(5)); got != 1 {
		t.Fatalf("scale before window = %v, want 1", got)
	}
	if got := in.CostScale(ms(15)); got != 3 {
		t.Fatalf("scale inside window = %v, want 3", got)
	}
	if got := in.CostScale(ms(20)); got != 1 {
		t.Fatalf("scale at exclusive end = %v, want 1", got)
	}
	if n := in.Counters().StalledFrames; n != 1 {
		t.Fatalf("stalled frames = %d, want 1", n)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{
		Seed:        42,
		VSyncJitter: []Episode{{Start: 0, End: ms(100), Severity: 1.5}},
		MissedVSync: []Episode{{Start: 0, End: ms(100), Severity: 0.5}},
		AllocFail:   []Episode{{Start: 0, End: ms(100), Severity: 0.5}},
	}
	run := func() ([]simtime.Duration, []bool, []bool) {
		in := NewInjector(cfg)
		var delays []simtime.Duration
		var misses, allocs []bool
		for i := 0; i < 50; i++ {
			at := ms(float64(i))
			delays = append(delays, in.EdgeDelay(at))
			misses = append(misses, in.EdgeMiss(at, uint64(i)))
			allocs = append(allocs, in.AllocFails(at))
		}
		return delays, misses, allocs
	}
	d1, m1, a1 := run()
	d2, m2, a2 := run()
	for i := range d1 {
		if d1[i] != d2[i] || m1[i] != m2[i] || a1[i] != a2[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
}

func TestEdgeDelayClamped(t *testing.T) {
	in := NewInjector(Config{VSyncJitter: []Episode{{Start: 0, End: ms(1000), Severity: 2}}})
	sigma := simtime.Duration(2 * float64(simtime.Millisecond))
	for i := 0; i < 500; i++ {
		d := in.EdgeDelay(ms(float64(i)))
		if d < -3*sigma || d > 3*sigma {
			t.Fatalf("jitter %v exceeds ±3σ (%v)", d, 3*sigma)
		}
	}
}

func TestSignalDelayAccumulates(t *testing.T) {
	in := NewInjector(Config{ClockDrift: []Episode{{Start: ms(0), End: ms(10000), Severity: 1000}}})
	early := in.SignalDelay(ms(1000))
	late := in.SignalDelay(ms(9000))
	if early >= late {
		t.Fatalf("drift not accumulating: %v at 1s vs %v at 9s", early, late)
	}
	// 1000 ppm over 1 s is 1 ms of lag.
	if want := simtime.FromMillis(1); early != want {
		t.Fatalf("drift after 1 s = %v, want %v", early, want)
	}
	if d := in.SignalDelay(ms(10000)); d != 0 {
		t.Fatalf("drift past window end = %v, want 0", d)
	}
}

func TestBurstDelivery(t *testing.T) {
	in := NewInjector(Config{InputBurst: []Episode{{Start: ms(100), End: ms(200), Severity: 20}}})
	if _, ok := in.BurstDelivery(ms(50)); ok {
		t.Fatal("burst active outside window")
	}
	got, ok := in.BurstDelivery(ms(105))
	if !ok || got != ms(120) {
		t.Fatalf("delivery of t=105ms = %v (ok=%v), want 120ms", got, ok)
	}
	got, _ = in.BurstDelivery(ms(120))
	if got != ms(140) {
		t.Fatalf("delivery of t=120ms = %v, want 140ms", got)
	}
	got, _ = in.BurstDelivery(ms(199))
	if got != ms(200) {
		t.Fatalf("delivery of t=199ms = %v, want clamp to window end 200ms", got)
	}
	prev := simtime.Time(0)
	for x := 100.0; x < 200; x += 7 {
		d, _ := in.BurstDelivery(ms(x))
		if d < prev {
			t.Fatalf("burst delivery not monotone at t=%vms", x)
		}
		prev = d
	}
}

func TestScenario(t *testing.T) {
	for _, cls := range Classes() {
		cfg, err := Scenario(cls, 0.5, ms(0), ms(1000), 7)
		if err != nil {
			t.Fatalf("scenario %q: %v", cls, err)
		}
		if !cfg.Enabled() {
			t.Fatalf("scenario %q at severity 0.5 injects nothing", cls)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("scenario %q invalid: %v", cls, err)
		}
		zero, err := Scenario(cls, 0, ms(0), ms(1000), 7)
		if err != nil {
			t.Fatalf("scenario %q at zero severity: %v", cls, err)
		}
		if zero.Enabled() {
			t.Fatalf("scenario %q at severity 0 injects faults", cls)
		}
	}
	if _, err := Scenario("nope", 0.5, ms(0), ms(1), 7); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := Scenario("stall", 1.5, ms(0), ms(1), 7); err == nil {
		t.Fatal("out-of-range severity accepted")
	}
	if _, err := Scenario("jitter", math.NaN(), ms(0), ms(1), 7); err == nil {
		t.Fatal("NaN severity accepted")
	}
	if _, err := Scenario("stall", 0.5, ms(1), ms(1), 7); err == nil {
		t.Fatal("empty window accepted")
	}
}
