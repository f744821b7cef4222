package simtime

import (
	"testing"
	"testing/quick"
)

func TestPeriodForHz(t *testing.T) {
	cases := []struct {
		hz   int
		want Duration
	}{
		{60, 16666666},
		{90, 11111111},
		{120, 8333333},
		{30, 33333333},
		{1, Duration(Second)},
	}
	for _, c := range cases {
		if got := PeriodForHz(c.hz); got != c.want {
			t.Errorf("PeriodForHz(%d) = %d, want %d", c.hz, got, c.want)
		}
	}
}

func TestPeriodForHzPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 Hz")
		}
	}()
	PeriodForHz(0)
}

func TestHzForPeriodRoundTrip(t *testing.T) {
	for _, hz := range []int{30, 60, 90, 120, 144, 165} {
		if got := HzForPeriod(PeriodForHz(hz)); got != hz {
			t.Errorf("HzForPeriod(PeriodForHz(%d)) = %d", hz, got)
		}
	}
}

func TestAddSub(t *testing.T) {
	t0 := Time(1000)
	if got := t0.Add(500); got != 1500 {
		t.Errorf("Add = %d", got)
	}
	if got := Time(1500).Sub(t0); got != 500 {
		t.Errorf("Sub = %d", got)
	}
	if !t0.Before(1500) || !Time(1500).After(t0) {
		t.Error("Before/After inconsistent")
	}
}

func TestAlignUp(t *testing.T) {
	p := Duration(100)
	cases := []struct {
		t, phase, want Time
	}{
		{0, 0, 0},
		{1, 0, 100},
		{100, 0, 100},
		{101, 0, 200},
		{5, 10, 10},
		{10, 10, 10},
		{11, 10, 110},
		{250, 50, 250},
		{251, 50, 350},
	}
	for _, c := range cases {
		if got := AlignUp(c.t, p, c.phase); got != c.want {
			t.Errorf("AlignUp(%d, %d, %d) = %d, want %d", c.t, p, c.phase, got, c.want)
		}
	}
}

func TestAlignUpProperties(t *testing.T) {
	f := func(rawT int32, rawPhase int16, rawPeriod uint16) bool {
		period := Duration(rawPeriod%5000) + 1
		phase := Time(rawPhase)
		tt := Time(rawT)
		got := AlignUp(tt, period, phase)
		if got < tt && got != phase {
			return false
		}
		if got < phase {
			return false
		}
		// Result must be on the grid.
		return (got-phase)%Time(period) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMinMaxClamp: Clamp holds a duration between its min and max bounds.
func TestMinMaxClamp(t *testing.T) {
	if Clamp(5, 1, 3) != 3 || Clamp(-5, 1, 3) != 1 || Clamp(2, 1, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestConversions(t *testing.T) {
	if FromMillis(16.667) != 16667000 {
		t.Errorf("FromMillis = %d", FromMillis(16.667))
	}
	if FromMicros(100) != 100000 {
		t.Errorf("FromMicros = %d", FromMicros(100))
	}
	if FromSeconds(2) != 2*Second {
		t.Errorf("FromSeconds = %d", FromSeconds(2))
	}
	if got := Duration(Second).Milliseconds(); got != 1000 {
		t.Errorf("Milliseconds = %v", got)
	}
	if got := Time(2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if s := Time(16666666).String(); s != "16.667ms" {
		t.Errorf("Time.String = %q", s)
	}
	if s := Never.String(); s != "never" {
		t.Errorf("Never.String = %q", s)
	}
	if s := Duration(1500000).String(); s != "1.500ms" {
		t.Errorf("Duration.String = %q", s)
	}
}
