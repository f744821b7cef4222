package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", w.Mean())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %v", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Std() != 0 || w.N() != 0 {
		t.Error("empty Welford should be zero")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		return math.Abs(w.Mean()-mean) < 1e-6*(1+math.Abs(mean))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	// Table over the boundary cases of the documented contract: NaN on an
	// empty sample, clamping at p ≤ 0 / p ≥ 1, and the n = 1 degeneracy.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"p0-min", ten, 0, 1},
		{"p-negative-clamps", ten, -0.5, 1},
		{"p1-max", ten, 1, 10},
		{"p-over-one-clamps", ten, 1.5, 10},
		{"p50-interpolates", ten, 0.5, 5.5},
		{"n1-p0", []float64{7}, 0, 7},
		{"n1-p50", []float64{7}, 0.5, 7},
		{"n1-p1", []float64{7}, 1, 7},
		{"n2-p25", []float64{2, 4}, 0.25, 2.5},
	}
	for _, tc := range cases {
		if got := Percentile(tc.sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
	// Regression for the original defect: the empty-sample quantile used to
	// be a silent 0, indistinguishable from a real zero-latency sample.
	for _, p := range []float64{0, 0.5, 1} {
		if got := Percentile(nil, p); !math.IsNaN(got) {
			t.Errorf("Percentile(nil, %v) = %v, want NaN", p, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40})
	if s.N != 4 || s.Mean != 25 || s.Min != 10 || s.Max != 40 {
		t.Errorf("summary %+v", s)
	}
	if s.P50 != 25 {
		t.Errorf("P50 = %v", s.P50)
	}
	if !s.Valid() || s.MeanOrZero() != 25 {
		t.Errorf("non-empty summary should be valid: %+v", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 || s.Std != 0 {
		t.Errorf("singleton summary %+v", s)
	}
	for name, q := range map[string]float64{"P50": s.P50, "P90": s.P90, "P95": s.P95, "P99": s.P99} {
		if q != 3.5 {
			t.Errorf("singleton %s = %v, want 3.5", name, q)
		}
	}
}

func TestSummarizeEmptyContract(t *testing.T) {
	empty := Summarize(nil)
	if empty.N != 0 || empty.Valid() {
		t.Errorf("empty summary should be invalid: %+v", empty)
	}
	// Regression for the original defect: every statistic of an empty
	// sample used to read as a plausible 0.
	for name, v := range map[string]float64{
		"Mean": empty.Mean, "Std": empty.Std, "Min": empty.Min, "Max": empty.Max,
		"P50": empty.P50, "P90": empty.P90, "P95": empty.P95, "P99": empty.P99,
	} {
		if !math.IsNaN(v) {
			t.Errorf("empty %s = %v, want NaN", name, v)
		}
	}
	if empty.MeanOrZero() != 0 {
		t.Errorf("MeanOrZero on empty = %v, want 0", empty.MeanOrZero())
	}
}

func TestJankReport(t *testing.T) {
	r := JankReport{Janks: 12, Edges: 120, WindowSeconds: 2}
	if r.FDPS() != 6 {
		t.Errorf("FDPS = %v", r.FDPS())
	}
	if r.DropPercent() != 10 {
		t.Errorf("DropPercent = %v", r.DropPercent())
	}
	if got := r.EffectiveFPS(60); got != 54 {
		t.Errorf("EffectiveFPS = %v", got)
	}
	zero := JankReport{}
	if zero.FDPS() != 0 || zero.DropPercent() != 0 {
		t.Error("zero report should be zero")
	}
}

func TestCountStutters(t *testing.T) {
	cfg := DefaultStutterConfig()
	cases := []struct {
		name  string
		janks []JankEvent
		want  int
	}{
		{"none", nil, 0},
		{"single non-key", []JankEvent{{EdgeSeq: 5}}, 0},
		{"single key", []JankEvent{{EdgeSeq: 5, KeyFrame: true}}, 1},
		{"run of two", []JankEvent{{EdgeSeq: 5}, {EdgeSeq: 6}}, 1},
		{"two separate runs", []JankEvent{{EdgeSeq: 5}, {EdgeSeq: 6}, {EdgeSeq: 20}, {EdgeSeq: 21}, {EdgeSeq: 22}}, 2},
		{"isolated non-key janks", []JankEvent{{EdgeSeq: 5}, {EdgeSeq: 10}, {EdgeSeq: 15}}, 0},
		{"isolated key janks", []JankEvent{{EdgeSeq: 5, KeyFrame: true}, {EdgeSeq: 10, KeyFrame: true}}, 2},
	}
	for _, c := range cases {
		if got := CountStutters(c.janks, cfg); got != c.want {
			t.Errorf("%s: stutters = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCountStuttersMinRunOnly(t *testing.T) {
	cfg := StutterConfig{MinRun: 3, KeyFrameJank: false}
	janks := []JankEvent{{EdgeSeq: 1, KeyFrame: true}, {EdgeSeq: 2}, {EdgeSeq: 4}, {EdgeSeq: 5}, {EdgeSeq: 6}}
	if got := CountStutters(janks, cfg); got != 1 {
		t.Errorf("stutters = %d, want 1 (only the 3-run)", got)
	}
}

func TestPowerModel(t *testing.T) {
	m := DefaultPowerModel()
	e1 := m.EnergyJoules(1000, 60000)
	e2 := m.EnergyJoules(1100, 60000)
	if e2 <= e1 {
		t.Error("more work must cost more energy")
	}
	inc := PercentIncrease(e1, e2)
	if inc <= 0 || inc > 1 {
		t.Errorf("increase = %v%%, want small positive", inc)
	}
	if m.RenderInstructions(1) != m.RenderInstructionsPerMs {
		t.Error("render instruction proxy wrong")
	}
	if m.LittleInstructions(2) != 2*m.LittleInstructionsPerMs {
		t.Error("little instruction proxy wrong")
	}
}

func TestPercentHelpers(t *testing.T) {
	if PercentIncrease(100, 110) != 10 {
		t.Error("PercentIncrease")
	}
	if PercentIncrease(0, 5) != 0 {
		t.Error("zero base should yield 0")
	}
}

// Property: Percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		pa, pb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(xs, pa), Percentile(xs, pb)
		return qa <= qb && qa >= xs[0] && qb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
