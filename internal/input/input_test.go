package input

import (
	"math"
	"testing"

	"dvsync/internal/simtime"
)

func TestSwipeKinematics(t *testing.T) {
	s := Swipe{Start: 100, Velocity: 1000, Duration: simtime.FromMillis(500)}
	if got := s.Value(0); got != 100 {
		t.Errorf("Value(0) = %v", got)
	}
	if got := s.Value(simtime.Time(simtime.FromMillis(250))); math.Abs(got-350) > 1e-9 {
		t.Errorf("Value(250ms) = %v, want 350", got)
	}
	// After the finger lifts, the position holds.
	if got := s.Value(simtime.Time(simtime.FromMillis(900))); math.Abs(got-600) > 1e-9 {
		t.Errorf("Value(after) = %v, want 600", got)
	}
	if !s.Down(simtime.Time(simtime.FromMillis(100))) || s.Down(simtime.Time(simtime.FromMillis(600))) {
		t.Error("Down wrong")
	}
}

func TestFlingDeceleration(t *testing.T) {
	f := Fling{Start: 0, Velocity: 2000, DownFor: simtime.FromMillis(200),
		Friction: 3, Settle: simtime.FromMillis(800)}
	vAt := func(ms float64) float64 {
		dt := simtime.FromMillis(1)
		a := f.Value(simtime.Time(simtime.FromMillis(ms)))
		b := f.Value(simtime.Time(simtime.FromMillis(ms)).Add(dt))
		return (b - a) / dt.Seconds()
	}
	// Velocity during drag ≈ 2000; velocity decays after release.
	if v := vAt(100); math.Abs(v-2000) > 1 {
		t.Errorf("drag velocity %v", v)
	}
	v1, v2 := vAt(300), vAt(600)
	if v1 <= v2 || v1 >= 2000 {
		t.Errorf("fling not decelerating: v(300ms)=%v v(600ms)=%v", v1, v2)
	}
	// Position is monotone.
	prev := -1.0
	for ms := 0.0; ms <= 1000; ms += 10 {
		v := f.Value(simtime.Time(simtime.FromMillis(ms)))
		if v < prev {
			t.Fatalf("position regressed at %vms", ms)
		}
		prev = v
	}
}

func TestPinchTremor(t *testing.T) {
	p := Pinch{StartDistance: 200, RatePxPerSec: 400, TremorAmp: 5, TremorHz: 8,
		Duration: simtime.FromMillis(1000)}
	if got := p.Value(0); got != 200 {
		t.Errorf("Value(0) = %v", got)
	}
	end := p.Value(simtime.Time(simtime.FromMillis(1000)))
	if math.Abs(end-600) > p.TremorAmp+1e-9 {
		t.Errorf("Value(1s) = %v, want ≈600", end)
	}
	// Tremor means the trace deviates from the pure line somewhere.
	deviated := false
	for ms := 0.0; ms < 1000; ms += 7 {
		tt := simtime.Time(simtime.FromMillis(ms))
		line := 200 + 400*simtime.Duration(tt).Seconds()
		if math.Abs(p.Value(tt)-line) > 1 {
			deviated = true
			break
		}
	}
	if !deviated {
		t.Error("tremor has no effect")
	}
}

func TestDigitizerSampling(t *testing.T) {
	s := Swipe{Start: 0, Velocity: 100, Duration: simtime.FromMillis(100)}
	d := Digitizer{RateHz: 120}
	samples := d.Samples(s)
	want := int(simtime.FromMillis(100)/simtime.PeriodForHz(120)) + 1
	if len(samples) != want {
		t.Fatalf("samples = %d, want %d", len(samples), want)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At.Sub(samples[i-1].At) != simtime.PeriodForHz(120) {
			t.Fatal("sample spacing wrong")
		}
		if samples[i].Value < samples[i-1].Value {
			t.Fatal("swipe samples should be monotone")
		}
	}
}

func TestDigitizerInvalidRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Digitizer{}.Samples(Swipe{Duration: 1000})
}

// scriptedPerturber drops listed timestamps and delays listed ones.
type scriptedPerturber struct {
	drop  map[simtime.Time]bool
	delay map[simtime.Time]simtime.Time
}

func (p scriptedPerturber) DropSample(at simtime.Time) bool { return p.drop[at] }
func (p scriptedPerturber) BurstDelivery(at simtime.Time) (simtime.Time, bool) {
	d, ok := p.delay[at]
	return d, ok
}

func TestPerturb(t *testing.T) {
	samples := []Sample{
		{At: 0, Value: 0}, {At: 10, Value: 1}, {At: 20, Value: 2}, {At: 30, Value: 3},
	}
	p := scriptedPerturber{
		drop:  map[simtime.Time]bool{10: true},
		delay: map[simtime.Time]simtime.Time{20: 25},
	}
	got := Perturb(samples, p)
	if len(got) != 3 {
		t.Fatalf("perturbed stream has %d samples, want 3", len(got))
	}
	if got[0].At != 0 || got[1].At != 25 || got[2].At != 30 {
		t.Fatalf("delivery times = %v,%v,%v, want 0,25,30", got[0].At, got[1].At, got[2].At)
	}
	// A held report keeps its sampled value: the glass state is unchanged,
	// software just learns it late.
	if got[1].Value != 2 {
		t.Fatalf("held sample value = %v, want 2", got[1].Value)
	}
	// The input slice is untouched.
	if samples[2].At != 20 {
		t.Fatal("Perturb mutated its input")
	}
	if out := Perturb(samples, nil); len(out) != len(samples) {
		t.Fatal("nil perturber must be the identity")
	}
}
