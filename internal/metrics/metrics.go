// Package metrics provides the statistics used to evaluate rendering
// performance: frame drops per second (FDPS), frame-drop percentage of
// display time, rendering latency, buffer-stuffing breakdowns, perceived
// stutters, and the power/instruction proxies of §6.4–§6.7.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates mean/variance online (numerically stable).
type Welford struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add folds one observation in.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
	if !w.hasExtrema || x < w.min {
		w.min = x
	}
	if !w.hasExtrema || x > w.max {
		w.max = x
	}
	w.hasExtrema = true
}

// N returns the observation count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Summary is a five-number-style description of a sample. On an empty
// sample (N == 0) every statistic is NaN — check Valid before formatting.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
	P50, P90, P95, P99  float64
}

// Valid reports whether the summary describes a non-empty sample; an
// invalid summary's statistics are all NaN.
func (s Summary) Valid() bool { return s.N > 0 }

// MeanOrZero returns the mean, or 0 for an empty sample — the guard for
// report columns where an absent sample should render as zero rather than
// NaN.
func (s Summary) MeanOrZero() float64 {
	if !s.Valid() {
		return 0
	}
	return s.Mean
}

// Summarize computes a Summary of xs (xs is not modified).
//
// Empty-input contract: a zero-length sample has no mean, extrema or
// quantiles, so every statistic is NaN (never a misleading 0 — a 0 ms
// latency summary reads as "instant", not "absent"). N stays 0 so callers
// can branch with Valid.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{
			Mean: nan, Std: nan, Min: nan, Max: nan,
			P50: nan, P90: nan, P95: nan, P99: nan,
		}
	}
	s := Summary{N: len(xs)}
	var w Welford
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, x := range xs {
		w.Add(x)
	}
	s.Mean, s.Std, s.Min, s.Max = w.Mean(), w.Std(), w.Min(), w.Max()
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile interpolates the p-quantile (p ∈ [0,1]) of an ascending-sorted
// sample. p ≤ 0 returns the minimum and p ≥ 1 the maximum.
//
// Empty-input contract: the quantile of an empty sample does not exist, so
// the result is NaN (the old silent 0 masqueraded as a real observation in
// latency tables).
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF evaluates the empirical CDF of a sample at the given thresholds.
func CDF(xs []float64, thresholds []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] > th })
		out[i] = float64(idx) / float64(len(sorted))
	}
	return out
}

// Histogram bins a sample into equal-width buckets over [lo, hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if hi <= lo || bins <= 0 {
		panic(fmt.Sprintf("metrics: invalid histogram [%v,%v)/%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add bins one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations added.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// JankReport summarises frame drops over a display window.
type JankReport struct {
	// Janks is the number of refresh edges that had to repeat the previous
	// frame while updates were due.
	Janks int
	// Edges is the number of refresh edges in the active display window.
	Edges int
	// WindowSeconds is the active display window length.
	WindowSeconds float64
}

// FDPS returns frame drops per second — the industry metric of §3.2.
func (r JankReport) FDPS() float64 {
	if r.WindowSeconds <= 0 {
		return 0
	}
	return float64(r.Janks) / r.WindowSeconds
}

// DropPercent returns frame drops as a share of total display time
// (Figure 5's FD%).
func (r JankReport) DropPercent() float64 {
	if r.Edges == 0 {
		return 0
	}
	return 100 * float64(r.Janks) / float64(r.Edges)
}

// EffectiveFPS returns the achieved update rate given the nominal rate.
func (r JankReport) EffectiveFPS(nominalHz float64) float64 {
	if r.Edges == 0 {
		return nominalHz
	}
	return nominalHz * float64(r.Edges-r.Janks) / float64(r.Edges)
}

// StutterConfig tunes the perceived-stutter detector used for Table 2.
type StutterConfig struct {
	// MinRun is the number of consecutive janks that a user perceives as a
	// stutter even on non-key frames. The paper's UX evaluators confirm
	// janks with a high-speed camera; isolated single drops at high
	// refresh rates are typically below perception.
	MinRun int
	// KeyFrameJank counts a single jank as a stutter when it lands on a
	// key frame ("users may experience a stutter if it is a key frame in a
	// series of screen updates", §2).
	KeyFrameJank bool
}

// DefaultStutterConfig mirrors the industrial criteria described in §6.2.
func DefaultStutterConfig() StutterConfig {
	return StutterConfig{MinRun: 2, KeyFrameJank: true}
}

// JankEvent is one repeated-frame edge, tagged with whether the missed
// update was a key (heavily loaded) frame.
type JankEvent struct {
	// EdgeSeq is the refresh edge index.
	EdgeSeq uint64
	// KeyFrame marks janks caused by heavily loaded frames.
	KeyFrame bool
}

// CountStutters applies the detector to a jank sequence. Consecutive edges
// (by EdgeSeq) form runs; each qualifying run counts as one stutter.
func CountStutters(janks []JankEvent, cfg StutterConfig) int {
	if len(janks) == 0 {
		return 0
	}
	stutters := 0
	runLen := 0
	runKey := false
	var prev uint64
	flush := func() {
		if runLen == 0 {
			return
		}
		if runLen >= cfg.MinRun || (cfg.KeyFrameJank && runKey) {
			stutters++
		}
		runLen = 0
		runKey = false
	}
	for i, j := range janks {
		if i > 0 && j.EdgeSeq != prev+1 {
			flush()
		}
		runLen++
		runKey = runKey || j.KeyFrame
		prev = j.EdgeSeq
	}
	flush()
	return stutters
}

// PowerModel converts execution accounting into the §6.7 proxies.
type PowerModel struct {
	// ActiveMilliwatts is drawn while the rendering stack executes.
	ActiveMilliwatts float64
	// BaseMilliwatts is the device's static draw over the same window.
	BaseMilliwatts float64
	// RenderInstructionsPerMs approximates instructions retired per
	// millisecond of render-service work on the middle/big cores
	// (calibrated so the per-frame count over the OS use cases lands near
	// the paper's 10.8 M instructions/frame at 120 Hz, §6.7).
	RenderInstructionsPerMs float64
	// LittleInstructionsPerMs approximates instructions retired per
	// millisecond on the little cores where the VSync/D-VSync threads run
	// (§6.4), converting the 102.6 µs FPE+DTV cost into the paper's
	// ≈56 k-instruction (0.52 %) overhead.
	LittleInstructionsPerMs float64
}

// DefaultPowerModel returns coefficients calibrated against §6.4/§6.7:
// little-core render-service work at roughly 1.3 GIPS effective.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		ActiveMilliwatts:        850,
		BaseMilliwatts:          1900,
		RenderInstructionsPerMs: 2.14e6,
		LittleInstructionsPerMs: 0.55e6,
	}
}

// EnergyJoules returns total energy for a run that executed workMs of
// rendering work over windowMs of wall time.
func (m PowerModel) EnergyJoules(workMs, windowMs float64) float64 {
	return (m.ActiveMilliwatts*workMs + m.BaseMilliwatts*windowMs) / 1e6
}

// RenderInstructions returns the instruction proxy for workMs of
// render-service work.
func (m PowerModel) RenderInstructions(workMs float64) float64 {
	return m.RenderInstructionsPerMs * workMs
}

// LittleInstructions returns the instruction proxy for workMs of
// control-plane (FPE/DTV) work on the little cores.
func (m PowerModel) LittleInstructions(workMs float64) float64 {
	return m.LittleInstructionsPerMs * workMs
}

// PercentIncrease returns 100·(b−a)/a.
func PercentIncrease(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// PercentReduction returns 100·(a−b)/a.
func PercentReduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (a - b) / a
}
