package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitDecorrelates(t *testing.T) {
	g := New(1)
	a := g.Split("ui")
	g2 := New(1)
	b := g2.Split("render")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams correlated: %d identical of 100", same)
	}
}

func TestLognormalFromMoments(t *testing.T) {
	mean, sd := 8.0, 3.0
	l := LognormalFromMoments(mean, sd)
	g := New(123)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := l.Sample(g)
		if v <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
		sum += v
		sumsq += v * v
	}
	gotMean := sum / float64(n)
	gotSD := math.Sqrt(sumsq/float64(n) - gotMean*gotMean)
	if math.Abs(gotMean-mean) > 0.1 {
		t.Errorf("empirical mean %v, want ≈%v", gotMean, mean)
	}
	if math.Abs(gotSD-sd) > 0.2 {
		t.Errorf("empirical sd %v, want ≈%v", gotSD, sd)
	}
	if analytic := math.Exp(l.Mu + l.Sigma*l.Sigma/2); math.Abs(analytic-mean) > 1e-9 {
		t.Errorf("analytic mean %v, want %v", analytic, mean)
	}
}

func TestParetoTail(t *testing.T) {
	g := New(55)
	p := Pareto{Xm: 10, Alpha: 2}
	n := 100000
	over20 := 0
	for i := 0; i < n; i++ {
		v := p.Sample(g)
		if v < p.Xm {
			t.Fatalf("pareto below scale: %v", v)
		}
		if v > 20 {
			over20++
		}
	}
	// P(X > 20) = (10/20)^2 = 0.25.
	frac := float64(over20) / float64(n)
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("P(X>20) = %v, want ≈0.25", frac)
	}
}

func TestParetoHeavierTailWithSmallerAlpha(t *testing.T) {
	q := func(alpha float64) float64 {
		g := New(99)
		p := Pareto{Xm: 1, Alpha: alpha}
		max := 0.0
		for i := 0; i < 10000; i++ {
			if v := p.Sample(g); v > max {
				max = v
			}
		}
		return max
	}
	if q(1.2) <= q(3.5) {
		t.Error("smaller alpha should produce heavier extremes")
	}
}

// Property: all samplers produce finite values.
func TestSamplersFinite(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed)
		for _, sample := range []func(*RNG) float64{
			Lognormal{Mu: 1, Sigma: 0.5}.Sample,
			Pareto{Xm: 1, Alpha: 1.5}.Sample,
		} {
			v := sample(g)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// reseedDraws are the entry points that must apply a deferred Reseed.
// Each returns what it drew so two streams can be compared.
var reseedDraws = []struct {
	name string
	draw func(g *RNG) []float64
}{
	{"Float64", func(g *RNG) []float64 { return []float64{g.Float64(), g.Float64()} }},
	{"Intn", func(g *RNG) []float64 { return []float64{float64(g.Intn(1000)), float64(g.Intn(7))} }},
	{"NormFloat64", func(g *RNG) []float64 { return []float64{g.NormFloat64(), g.NormFloat64()} }},
	{"Perm", func(g *RNG) []float64 {
		var out []float64
		for _, v := range g.Perm(9) {
			out = append(out, float64(v))
		}
		return out
	}},
	{"Split", func(g *RNG) []float64 {
		c := g.Split("child")
		return []float64{c.Float64(), c.NormFloat64(), g.Float64()}
	}},
}

func sameDraws(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: drew %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: drew %v, want %v", what, got, want)
		}
	}
}

// TestReseedMatchesNew: a Reseed is deferred to the first draw, yet every
// entry point sees exactly the stream New would give, and Draws reads 0
// right after Reseed whether or not the stream had drawn before. New defers its seeding the same way,
// so a stream that never drew — still without a source — reads the same
// Draws and Seed and is rewound by Reseed like any other.
func TestReseedMatchesNew(t *testing.T) {
	const seed = 20260417
	for _, d := range reseedDraws {
		fresh := New(seed)
		if fresh.Draws() != 0 || fresh.Seed() != seed {
			t.Fatalf("%s: undrawn New(%d) reads Draws %d, Seed %d", d.name, seed, fresh.Draws(), fresh.Seed())
		}
		want := d.draw(fresh)

		undrawn := New(7)
		undrawn.Reseed(seed)
		if undrawn.Draws() != 0 || undrawn.Seed() != seed {
			t.Fatalf("%s: Reseed of an undrawn stream reads Draws %d, Seed %d",
				d.name, undrawn.Draws(), undrawn.Seed())
		}
		sameDraws(t, d.name+" after Reseed of an undrawn stream", d.draw(undrawn), want)

		used := New(7)
		used.Float64()
		used.Perm(3)
		used.Reseed(seed)
		if n := used.Draws(); n != 0 {
			t.Fatalf("%s: Draws() = %d right after Reseed, want 0", d.name, n)
		}
		if used.Seed() != seed {
			t.Fatalf("%s: Seed() = %d after Reseed(%d)", d.name, used.Seed(), seed)
		}
		sameDraws(t, d.name+" after Reseed", d.draw(used), want)
		if used.Draws() != fresh.Draws() {
			t.Fatalf("%s: Draws() = %d, New stream %d", d.name, used.Draws(), fresh.Draws())
		}
		sameDraws(t, d.name+" continuing", []float64{used.Float64()}, []float64{fresh.Float64()})

		// Only the last of several Reseeds without a draw between counts.
		twice := New(seed)
		twice.Reseed(1)
		twice.Reseed(seed + 1)
		twice.Reseed(seed)
		sameDraws(t, d.name+" after repeated Reseed", d.draw(twice), want)
	}
}

// sink keeps the streams TestNewSeedsNothingUntilDrawn builds on the heap,
// as every stream a simulation keeps is.
var sink *RNG

// TestNewSeedsNothingUntilDrawn: New and Reseed only record a seed; the
// 607-word source is built by the first draw, so a stream that never
// draws costs one allocation fewer than one that does, and a rewound
// stream that draws again allocates nothing.
func TestNewSeedsNothingUntilDrawn(t *testing.T) {
	undrawn := testing.AllocsPerRun(20, func() { sink = New(5) })
	drawn := testing.AllocsPerRun(20, func() { sink = New(5); sink.Float64() })
	if drawn != undrawn+1 {
		t.Errorf("New allocates %v, New plus a draw %v: want exactly one more for the source", undrawn, drawn)
	}
	g := New(5)
	g.Float64()
	if n := testing.AllocsPerRun(20, func() { g.Reseed(6); g.Float64() }); n != 0 {
		t.Errorf("Reseed plus a draw allocates %v, want 0", n)
	}
}

// splitSeedEdges are seeds where math/rand's seed reduction branches: 0
// and the multiples of 2³¹−1 all stand in as 89482311, negative seeds are
// lifted by the modulus, and the int64 extremes test its wrap-around.
var splitSeedEdges = []int64{
	0, 1, -1, 89482311, -89482311,
	1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), -2 * (1<<31 - 1),
	(1<<31 - 1) * (1<<31 - 1), -(1<<31 - 1) * (1<<31 - 1),
	1<<31 - 2, 1 << 31, -(1 << 31),
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// splitSeedLabels include non-ASCII labels: Split hashes runes, not
// bytes, so "é" must not hash as its two UTF-8 bytes.
var splitSeedLabels = []string{"", "a", "fault.jitter", "QQMusic", "é", "日本語", "naïve-\u00e9", "\xff\xfe", "🎞 frame"}

// TestSplitSeedClosedForm holds the closed-form first draw to the real
// math/rand source: SplitSeed must equal the seed of the child a freshly
// seeded stream splits off, at the reduction's edge seeds, at 100 000
// seeded random seeds and for non-ASCII labels.
func TestSplitSeedClosedForm(t *testing.T) {
	check := func(seed int64, label string) {
		t.Helper()
		if got, want := SplitSeed(seed, label), New(seed).Split(label).Seed(); got != want {
			t.Fatalf("SplitSeed(%d, %q) = %d, New(seed).Split(label).Seed() = %d", seed, label, got, want)
		}
	}
	for _, seed := range splitSeedEdges {
		for _, label := range splitSeedLabels {
			check(seed, label)
		}
	}
	r := New(20261018)
	for i := 0; i < 100000; i++ {
		seed := int64(r.Float64()*(1<<63)) ^ int64(r.Intn(1<<31))<<32
		if i%2 == 1 {
			seed = -seed
		}
		check(seed, splitSeedLabels[i%len(splitSeedLabels)])
	}
}

// FuzzSplitSeed checks the closed form at fuzzer-chosen seeds and labels.
func FuzzSplitSeed(f *testing.F) {
	for i, seed := range splitSeedEdges {
		f.Add(seed, splitSeedLabels[i%len(splitSeedLabels)])
	}
	f.Fuzz(func(t *testing.T, seed int64, label string) {
		if got, want := SplitSeed(seed, label), New(seed).Split(label).Seed(); got != want {
			t.Fatalf("SplitSeed(%d, %q) = %d, New(seed).Split(label).Seed() = %d", seed, label, got, want)
		}
	})
}
