package workload

import (
	"testing"
	"testing/quick"

	"dvsync/internal/simtime"
)

func testProfile() Profile {
	return Profile{
		Name:         "test",
		ShortMeanMs:  5,
		ShortSigmaMs: 1.5,
		LongRatio:    0.05,
		LongScaleMs:  18,
		LongAlpha:    2.2,
		Burstiness:   0.3,
		UIShare:      0.35,
		Class:        Deterministic,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := testProfile()
	a := p.Generate(500, 42)
	b := p.Generate(500, 42)
	for i := range a.Costs {
		if a.Costs[i] != b.Costs[i] {
			t.Fatalf("frame %d differs across identical generations", i)
		}
	}
	c := p.Generate(500, 43)
	same := 0
	for i := range a.Costs {
		if a.Costs[i] == c.Costs[i] {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d identical frames", same)
	}
}

func TestGeneratePowerLawShape(t *testing.T) {
	p := testProfile()
	tr := p.Generate(20000, 1)
	period := simtime.PeriodForHz(60)
	// The Figure 1 shape: most frames fast, a small heavy tail.
	overOne := tr.FractionOver(period)
	if overOne < 0.02 || overOne > 0.12 {
		t.Errorf("fraction over one 60Hz period = %v, want a small tail", overOne)
	}
	under := tr.FractionOver(simtime.FromMillis(3))
	if under < 0.5 {
		t.Errorf("fraction over 3ms = %v; body should sit near 5ms", under)
	}
}

func TestGenerateBurstiness(t *testing.T) {
	base := testProfile()
	base.LongRatio = 0.10

	runs := func(burst float64) int {
		p := base
		p.Burstiness = burst
		tr := p.Generate(20000, 9)
		period := simtime.FromMillis(15)
		longRuns := 0
		prevLong := false
		for _, c := range tr.Costs {
			long := c.Total() > period
			if long && prevLong {
				longRuns++
			}
			prevLong = long
		}
		return longRuns
	}
	if runs(0.8) <= runs(0.0)*2 {
		t.Errorf("bursty profile should cluster long frames: %d vs %d", runs(0.8), runs(0.0))
	}
}

func TestStationaryLongRatio(t *testing.T) {
	p := testProfile()
	p.LongRatio = 0.08
	p.Burstiness = 0.6
	tr := p.Generate(50000, 5)
	// Long frames sample from the Pareto at ≥ LongScaleMs; the body stays
	// well below it, so the threshold splits them.
	th := simtime.FromMillis(p.LongScaleMs * 0.9)
	frac := tr.FractionOver(th)
	if frac < 0.05 || frac > 0.11 {
		t.Errorf("long fraction %v, want ≈0.08", frac)
	}
}

func TestUIShareSplit(t *testing.T) {
	p := testProfile()
	p.UIShare = 0.4
	tr := p.Generate(1000, 2)
	for i, c := range tr.Costs {
		total := float64(c.Total())
		got := float64(c.UI) / total
		if got < 0.39 || got > 0.41 {
			t.Fatalf("frame %d UI share %v", i, got)
		}
	}
}

func TestScale(t *testing.T) {
	p := testProfile()
	tr := p.Generate(100, 3)
	scaled := tr.Scale(2)
	for i := range tr.Costs {
		if scaled.Costs[i].UI != 2*tr.Costs[i].UI || scaled.Costs[i].RS != 2*tr.Costs[i].RS {
			t.Fatalf("frame %d not scaled", i)
		}
		if scaled.Costs[i].Class != tr.Costs[i].Class {
			t.Fatalf("frame %d class changed", i)
		}
	}
	if scaled.TotalCost() != 2*tr.TotalCost() {
		t.Error("total cost not doubled")
	}
}

func TestCDFMonotone(t *testing.T) {
	p := testProfile()
	tr := p.Generate(5000, 4)
	ths := []simtime.Duration{
		simtime.FromMillis(1), simtime.FromMillis(5), simtime.FromMillis(10),
		simtime.FromMillis(20), simtime.FromMillis(50),
	}
	cdf := tr.CDF(ths)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
	}
	if cdf[len(cdf)-1] < 0.95 {
		t.Errorf("CDF(50ms) = %v, want ≈1", cdf[len(cdf)-1])
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.ShortMeanMs = 0 },
		func(p *Profile) { p.ShortSigmaMs = -1 },
		func(p *Profile) { p.LongRatio = 0.9 },
		func(p *Profile) { p.LongAlpha = 0.9 },
		func(p *Profile) { p.LongScaleMs = 0 },
		func(p *Profile) { p.Burstiness = 1 },
		func(p *Profile) { p.UIShare = 0 },
		func(p *Profile) { p.UIShare = 1 },
	}
	for i, mutate := range bad {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	p := testProfile()
	if err := p.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestConcatAndSlice(t *testing.T) {
	p := testProfile()
	a := p.Generate(10, 1)
	b := p.Generate(20, 2)
	c := Concat("joined", a, b)
	if c.Len() != 30 {
		t.Fatalf("concat len %d", c.Len())
	}
	s := c.Slice(10, 30)
	if s.Len() != 20 || s.Costs[0] != b.Costs[0] {
		t.Error("slice wrong")
	}
}

func TestWithClass(t *testing.T) {
	p := testProfile()
	tr := p.Generate(50, 1).WithClass(Interactive)
	for _, c := range tr.Costs {
		if c.Class != Interactive {
			t.Fatal("class not applied")
		}
	}
}

func TestClassString(t *testing.T) {
	if Deterministic.String() != "deterministic" || Interactive.String() != "interactive" || Realtime.String() != "realtime" {
		t.Error("class strings wrong")
	}
}

// Property: generated costs are always positive and capped.
func TestGeneratedCostsBounded(t *testing.T) {
	f := func(seed int64) bool {
		p := testProfile()
		tr := p.Generate(200, seed)
		cap := simtime.FromMillis(p.LongScaleMs * 8)
		for _, c := range tr.Costs {
			if c.UI < 0 || c.RS < 0 || c.Total() <= 0 || c.Total() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkGenerate measures one 1 000-frame trace from the default
// profile, the unit the census and the calibration search pay per replica.
func BenchmarkGenerate(b *testing.B) {
	p := DefaultProfile("bench", 1000.0/60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Generate(1000, int64(i))
	}
}
