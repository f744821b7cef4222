package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func sameTrace(a, b *Trace) bool {
	return a.Name == b.Name && slices.Equal(a.Costs, b.Costs)
}

// lastInside walks the float64s from in (which the span contains) towards
// out (which it does not) and returns the last one the span contains.
// Non-negative float64s order like their bit patterns, and the span is an
// interval, so this is a bisection over bits.
func lastInside(s RatioSpan, in, out float64) float64 {
	a, b := math.Float64bits(in), math.Float64bits(out)
	for a+1 != b && b+1 != a {
		mid := a/2 + b/2 + a&b&1
		if s.Contains(math.Float64frombits(mid)) {
			a = mid
		} else {
			b = mid
		}
	}
	return math.Float64frombits(a)
}

// spanEdges returns the smallest and largest ratio the span contains,
// given one ratio r inside it.
func spanEdges(s RatioSpan, r float64) (lo, hi float64) {
	lo = 0
	if !s.Contains(0) {
		lo = lastInside(s, r, 0)
	}
	return lo, lastInside(s, r, 1)
}

// Property: over seeded random profiles (independent and bursty key
// frames), seeds, lengths and ratios in [0.002, 0.3], GenerateSpan returns
// Generate's trace, and every ratio its span contains regenerates that
// trace byte for byte — probed at the span's float edges, one ulp inside
// them and in between. One ulp outside an edge a key-frame decision flips,
// so the trace changes: the span is exact, not merely safe.
func TestGenerateSpanExact(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		p := Profile{
			Name:         fmt.Sprintf("span-%d", trial),
			ShortMeanMs:  2 + 8*rng.Float64(),
			ShortSigmaMs: 3 * rng.Float64(),
			LongRatio:    0.002 + 0.298*rng.Float64(),
			LongScaleMs:  8 + 30*rng.Float64(),
			LongAlpha:    1.1 + 2.5*rng.Float64(),
			UIShare:      0.2 + 0.6*rng.Float64(),
		}
		if trial%2 == 1 {
			p.Burstiness = 0.9 * rng.Float64()
		}
		n, seed := rng.Intn(600), rng.Int63()
		want := p.Generate(n, seed)
		got, span := p.GenerateSpan(n, seed)
		if !sameTrace(got, want) {
			t.Fatalf("%+v n=%d seed=%d: GenerateSpan's trace differs from Generate's", p, n, seed)
		}
		if !span.Contains(p.LongRatio) {
			t.Fatalf("%+v n=%d seed=%d: span misses its own ratio", p, n, seed)
		}
		lo, hi := spanEdges(span, p.LongRatio)
		inside := []float64{lo, math.Nextafter(lo, 1), hi, math.Nextafter(hi, 0),
			(lo + hi) / 2, lo + (hi-lo)*rng.Float64()}
		for _, r := range inside {
			q := p
			q.LongRatio = r
			if !span.Contains(r) || !sameTrace(q.Generate(n, seed), want) {
				t.Fatalf("%+v n=%d seed=%d: ratio %v in span [%v, %v] does not regenerate the trace",
					p, n, seed, r, lo, hi)
			}
		}
		for _, r := range []float64{math.Nextafter(lo, -1), math.Nextafter(hi, 1)} {
			if r < 0 || r > 0.5 {
				continue // the edge is the valid ratio range's, not a decision's
			}
			q := p
			q.LongRatio = r
			if span.Contains(r) || sameTrace(q.Generate(n, seed), want) {
				t.Fatalf("%+v n=%d seed=%d: span [%v, %v] is not exact at %v", p, n, seed, lo, hi, r)
			}
		}
	}
}

func TestRatioSpanRejectsInvalidRatios(t *testing.T) {
	p := testProfile()
	_, span := p.GenerateSpan(0, 1)
	if !span.Contains(0) || !span.Contains(0.5) {
		t.Error("an empty trace's span should hold every valid ratio")
	}
	for _, r := range []float64{-0.01, math.Nextafter(0.5, 1), math.NaN(), math.Inf(1)} {
		if span.Contains(r) {
			t.Errorf("span contains invalid ratio %v", r)
		}
	}
	if (RatioSpan{}).Contains(p.LongRatio) {
		t.Error("the zero RatioSpan contains a ratio")
	}
	// Without valid long-frame parameters only ratio 0 validates.
	p.LongRatio, p.LongScaleMs = 0, 0
	_, span = p.GenerateSpan(50, 1)
	if !span.Contains(0) || span.Contains(0.01) {
		t.Error("a profile with no long-frame scale spans ratio 0 alone")
	}
}
