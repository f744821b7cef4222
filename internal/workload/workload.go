// Package workload models frame rendering costs.
//
// The paper's characterisation study (§3) found that frame rendering time
// follows a power-law-like distribution: ≥95 % of frames are short while
// ≤5 % of key frames are heavily loaded, and it is these bursty long frames
// that cause janks. This package generates per-frame (UI cost, render cost)
// pairs from parameterised profiles that reproduce that shape, with a Markov
// burst model so long frames can cluster (the QQMusic-style skew of §6.1) or
// scatter (the Walmart-style pattern that D-VSync absorbs completely).
package workload

import (
	"fmt"
	"math"
	"sort"

	"dvsync/internal/dist"
	"dvsync/internal/simtime"
)

// Class tags a frame with the D-VSync applicability categories of §4.2.
type Class int

// Frame classes (Figure 9).
const (
	// Deterministic frames belong to animations (app opening, page
	// transitions, notification clearing, …) — pre-renderable by default.
	Deterministic Class = iota
	// Interactive frames follow a fingertip on the screen — pre-renderable
	// with IPL curve fitting.
	Interactive
	// Realtime frames depend on sensors or online data — D-VSync stays off.
	Realtime
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Deterministic:
		return "deterministic"
	case Interactive:
		return "interactive"
	case Realtime:
		return "realtime"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Cost is the execution demand of one frame.
type Cost struct {
	// UI is the app UI-thread stage duration.
	UI simtime.Duration
	// RS is the render-service/render-thread stage duration.
	RS simtime.Duration
	// Class is the frame's D-VSync applicability.
	Class Class
}

// Total returns UI + RS.
func (c Cost) Total() simtime.Duration { return c.UI + c.RS }

// Trace is a fixed sequence of frame costs — either synthesised from a
// Profile or recorded (the paper's game traces record per-frame CPU and GPU
// time, §6.1).
type Trace struct {
	// Name labels the trace.
	Name string
	// Costs holds one entry per frame.
	Costs []Cost
}

// Len returns the number of frames.
func (t *Trace) Len() int { return len(t.Costs) }

// Scale returns a copy with every stage cost multiplied by f. Calibration
// uses this to match a measured baseline FDPS.
func (t *Trace) Scale(f float64) *Trace {
	out := &Trace{Name: t.Name, Costs: make([]Cost, len(t.Costs))}
	for i, c := range t.Costs {
		out.Costs[i] = Cost{
			UI:    simtime.Duration(float64(c.UI) * f),
			RS:    simtime.Duration(float64(c.RS) * f),
			Class: c.Class,
		}
	}
	return out
}

// TotalCost sums all stage costs.
func (t *Trace) TotalCost() simtime.Duration {
	var sum simtime.Duration
	for _, c := range t.Costs {
		sum += c.Total()
	}
	return sum
}

// CDF returns the empirical CDF of total frame cost evaluated at the given
// thresholds (used to regenerate Figure 1).
func (t *Trace) CDF(thresholds []simtime.Duration) []float64 {
	totals := make([]simtime.Duration, len(t.Costs))
	for i, c := range t.Costs {
		totals[i] = c.Total()
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		idx := sort.Search(len(totals), func(j int) bool { return totals[j] > th })
		out[i] = float64(idx) / float64(len(totals))
	}
	return out
}

// FractionOver returns the share of frames whose total cost exceeds d.
func (t *Trace) FractionOver(d simtime.Duration) float64 {
	n := 0
	for _, c := range t.Costs {
		if c.Total() > d {
			n++
		}
	}
	return float64(n) / float64(len(t.Costs))
}

// Profile parameterises a synthetic workload. All durations are in
// milliseconds to keep scenario tables readable.
type Profile struct {
	// Name labels the profile.
	Name string
	// ShortMeanMs / ShortSigmaMs shape the lognormal body of short frames.
	ShortMeanMs, ShortSigmaMs float64
	// LongRatio is the stationary probability of a frame being a key
	// (long) frame. The paper pins this at ≤5 % (Figure 1).
	LongRatio float64
	// LongScaleMs is the Pareto scale (minimum long-frame cost).
	LongScaleMs float64
	// LongAlpha is the Pareto shape; smaller is heavier-tailed. Apps that
	// resist even 7 buffers (QQMusic) have alpha near 1.2; scattered
	// profiles (Walmart) sit near 3.
	LongAlpha float64
	// Burstiness is P(long | previous long) − the clustering of key
	// frames. 0 ⇒ independent; values near 1 produce runs of long frames.
	Burstiness float64
	// UIShare is the fraction of a frame's cost spent on the UI thread;
	// the remainder is render-service time. Typical UI-heavy apps ≈ 0.4.
	UIShare float64
	// Class is the frame class emitted for every frame.
	Class Class
	// MaxFrameMs caps pathological samples (0 = 10× the Pareto scale · 8).
	MaxFrameMs float64
}

// DefaultProfile is the canonical period-relative workload the CLIs (and
// the observability goldens) share: a lognormal short-frame body at 40 %
// of the refresh period with the paper's ≤5 % key-frame rate. Keeping it
// in one place means `dvtrace -record`, `dvbench -trace-dir` and the
// golden Perfetto fixtures all describe the same workload byte for byte.
func DefaultProfile(name string, periodMs float64) Profile {
	return Profile{
		Name:         name,
		ShortMeanMs:  0.4 * periodMs,
		ShortSigmaMs: 0.13 * periodMs,
		LongRatio:    0.05,
		LongScaleMs:  1.5 * periodMs,
		LongAlpha:    2.3,
		Burstiness:   0.2,
		UIShare:      0.35,
	}
}

// Validate reports configuration errors.
func (p *Profile) Validate() error {
	switch {
	case p.ShortMeanMs <= 0:
		return fmt.Errorf("workload %q: non-positive short mean", p.Name)
	case p.ShortSigmaMs < 0:
		return fmt.Errorf("workload %q: negative short sigma", p.Name)
	case p.LongRatio < 0 || p.LongRatio > 0.5:
		return fmt.Errorf("workload %q: long ratio %v outside [0, 0.5]", p.Name, p.LongRatio)
	case p.LongRatio > 0 && p.LongScaleMs <= 0:
		return fmt.Errorf("workload %q: non-positive long scale", p.Name)
	case p.LongRatio > 0 && p.LongAlpha <= 1:
		return fmt.Errorf("workload %q: pareto alpha %v must exceed 1", p.Name, p.LongAlpha)
	case p.Burstiness < 0 || p.Burstiness >= 1:
		return fmt.Errorf("workload %q: burstiness %v outside [0, 1)", p.Name, p.Burstiness)
	case p.UIShare <= 0 || p.UIShare >= 1:
		return fmt.Errorf("workload %q: UI share %v outside (0, 1)", p.Name, p.UIShare)
	}
	return nil
}

// TryGenerate synthesises an n-frame trace, reporting profile errors as
// values instead of panicking — the entry point for callers building
// profiles from external input.
func (p *Profile) TryGenerate(n int, seed int64) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.Generate(n, seed), nil
}

// Generate synthesises an n-frame trace. Generation is deterministic in
// (profile, n, seed). Invalid profiles panic; use TryGenerate to get an
// error value instead.
func (p *Profile) Generate(n int, seed int64) *Trace {
	t, _ := p.GenerateSpan(n, seed)
	return t
}

// GenerateSpan is Generate that also reports the span of LongRatio values
// reproducing the trace, so a caller varying only the ratio can tell
// which traces it already has.
func (p *Profile) GenerateSpan(n int, seed int64) (*Trace, RatioSpan) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	span := RatioSpan{burstiness: p.Burstiness, ceiling: 0.5,
		firstLong: -1, firstShort: 2, nextLong: -1, nextShort: 2}
	if p.LongScaleMs <= 0 || p.LongAlpha <= 1 {
		span.ceiling = 0
	}
	g := dist.New(seed).Split(p.Name)
	short := dist.LognormalFromMoments(p.ShortMeanMs, math.Max(p.ShortSigmaMs, 1e-6))
	long := dist.Pareto{Xm: p.LongScaleMs, Alpha: p.LongAlpha}
	maxMs := p.MaxFrameMs
	if maxMs <= 0 {
		maxMs = p.LongScaleMs * 8
		if maxMs < p.ShortMeanMs*8 {
			maxMs = p.ShortMeanMs * 8
		}
	}

	pLongAfterShort := longAfterShort(p.LongRatio, p.Burstiness)

	t := &Trace{Name: p.Name, Costs: make([]Cost, n)}
	draw := g.Float64()
	inLong := draw < p.LongRatio
	if n > 0 {
		narrow(draw, inLong, &span.firstLong, &span.firstShort)
	}
	for i := 0; i < n; i++ {
		var ms float64
		if inLong {
			ms = long.Sample(g)
		} else {
			ms = short.Sample(g)
		}
		if ms > maxMs {
			ms = maxMs
		}
		if ms < 0.05 {
			ms = 0.05
		}
		total := simtime.FromMillis(ms)
		ui := simtime.Duration(float64(total) * p.UIShare)
		t.Costs[i] = Cost{UI: ui, RS: total - ui, Class: p.Class}
		if inLong {
			inLong = g.Float64() < p.Burstiness
		} else {
			draw := g.Float64()
			inLong = draw < pLongAfterShort
			// The draw after the last frame decides nothing.
			if i < n-1 {
				narrow(draw, inLong, &span.nextLong, &span.nextShort)
			}
		}
	}
	return t, span
}

// RatioSpan is the set of LongRatio values at which Generate, with every
// other profile field and (n, seed) unchanged, makes the same key-frame
// decisions and so returns the identical trace. LongRatio enters
// generation only through those decisions: with the same decisions the
// generator draws the same numbers and samples the same costs, so the
// span holds just the draws that bound them.
type RatioSpan struct {
	burstiness float64
	ceiling    float64 // largest LongRatio the other profile fields validate with
	// The first frame is long iff its draw < LongRatio; a frame after a
	// short one is long iff its draw < P(long|short). Each pair holds the
	// largest draw that came out long and the smallest that came out short
	// (−1 and 2 when there were none). The zero RatioSpan contains no ratio.
	firstLong, firstShort float64
	nextLong, nextShort   float64
}

// Contains reports whether Generate at LongRatio r returns the span's
// trace. It evaluates the same float comparisons Generate would.
func (s RatioSpan) Contains(r float64) bool {
	if !(r >= 0 && r <= s.ceiling) {
		return false
	}
	p := longAfterShort(r, s.burstiness)
	return s.firstLong < r && !(s.firstShort < r) && s.nextLong < p && !(s.nextShort < p)
}

// longAfterShort is the chain's P(long|short). Two-state Markov chain with
// stationary long probability ratio and P(long|long) = burstiness: solving
// π_long = ratio gives P(long|short) = ratio·(1−burstiness) / (1−ratio).
func longAfterShort(ratio, burstiness float64) float64 {
	p := 0.0
	if ratio > 0 && ratio < 1 {
		p = ratio * (1 - burstiness) / (1 - ratio)
		if p > 1 {
			p = 1
		}
	}
	return p
}

// narrow tightens one of the span's decision pairs with a draw that came
// out long or short.
func narrow(draw float64, long bool, maxLong, minShort *float64) {
	if long {
		if draw > *maxLong {
			*maxLong = draw
		}
	} else if draw < *minShort {
		*minShort = draw
	}
}

// Concat joins traces into one (used to build composite UX tasks).
func Concat(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	for _, t := range traces {
		out.Costs = append(out.Costs, t.Costs...)
	}
	return out
}

// WithClass returns a copy of the trace with every frame re-tagged.
func (t *Trace) WithClass(c Class) *Trace {
	out := &Trace{Name: t.Name, Costs: make([]Cost, len(t.Costs))}
	for i, fc := range t.Costs {
		fc.Class = c
		out.Costs[i] = fc
	}
	return out
}

// Slice returns the sub-trace [from, to).
func (t *Trace) Slice(from, to int) *Trace {
	return &Trace{Name: t.Name, Costs: t.Costs[from:to]}
}
