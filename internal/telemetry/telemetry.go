// Package telemetry is the live, in-run metrics layer of the simulator:
// counters, gauges and fixed-bucket histograms registered at wiring time,
// updated from hooks on the hot path, and sampled into a time series on
// virtual-time intervals. It complements internal/obs — obs reconstructs
// its views *after* a run from the recorded event trace; telemetry
// aggregates *during* the run, so a scrape or a stream can watch a
// simulation in flight (DESIGN.md §10).
//
// Determinism contract: a registry is single-threaded like the simulation
// that feeds it; sample instants come from the virtual clock, never the
// host clock; and both writers (Prometheus text exposition and the JSON
// snapshot) iterate metrics in sorted-name order with fixed float
// formatting, so the same seed and scenario produce byte-identical output
// at every -workers width. When no registry is attached the simulator's
// hot path pays a nil check and nothing else — zero extra allocations,
// guarded by TestSimRunAllocs, which pins a registry-free run's
// allocations exactly.
package telemetry

import (
	"fmt"
	"sort"

	"dvsync/internal/simtime"
)

// Kind classifies a registered metric.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that moves both ways.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind using the Prometheus type vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Counter is a monotone count. The zero value is ready to use once
// registered.
type Counter struct{ v float64 }

// Inc adds one.
//
//dvlint:hotpath bumped from per-frame and per-edge hooks
func (c *Counter) Inc() { c.v++ }

// Add adds a non-negative delta; negative deltas panic (counters are
// monotone by contract — use a Gauge for values that move both ways).
//
//dvlint:hotpath bumped from per-frame and per-edge hooks
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("telemetry: negative counter delta %v", d))
	}
	c.v += d
}

// Value returns the cumulative count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set replaces the value.
//
//dvlint:hotpath refreshed from per-edge hooks
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the value by a (possibly negative) delta.
//
//dvlint:hotpath refreshed from per-edge hooks
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket distribution: cumulative counts under each
// upper bound plus an implicit +Inf bucket, with sum and count for mean
// derivation. Bounds are fixed at registration so expositions from
// different runs are always comparable bucket-for-bucket.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds (le)
	counts []uint64  // per-bucket (non-cumulative); len(bounds)+1, last is +Inf
	sum    float64
	n      uint64
}

// NewHistogram builds a standalone, unregistered histogram — scratch
// storage for aggregation pipelines (the fleet census folds per-cell
// latency distributions through one before merging into a registered
// cohort histogram). Bounds follow the same contract as
// Registry.Histogram: strictly increasing upper bounds with an implicit
// +Inf bucket; invalid bounds panic.
func NewHistogram(bounds []float64) *Histogram {
	validateBounds("(standalone)", bounds)
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// validateBounds enforces the shared histogram-bounds contract.
func validateBounds(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing at %v", name, bounds[i]))
		}
	}
}

// Observe records one value.
//
//dvlint:hotpath fed once per frame
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.counts[i]++
	h.sum += v
	h.n++
}

// Merge folds every observation of o into h. Both histograms must share
// identical bounds; merging mismatched layouts panics, because silently
// rebucketing would make merged distributions incomparable. Merge order
// matters for float determinism — callers that promise byte-identical
// output must merge in a fixed order (the fleet engine merges cells in
// spec-expansion order).
func (h *Histogram) Merge(o *Histogram) {
	if len(o.bounds) != len(h.bounds) {
		panic(fmt.Sprintf("telemetry: merging histograms with %d and %d bounds", len(o.bounds), len(h.bounds)))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			panic(fmt.Sprintf("telemetry: merging histograms with mismatched bound %v != %v", h.bounds[i], o.bounds[i]))
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// metric is one registered instrument.
type metric struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// sampleValue is the scalar a metric contributes to a time-series row:
// counters their cumulative count, gauges their current value, histograms
// their observation count.
func (m *metric) sampleValue() float64 {
	switch m.kind {
	case KindCounter:
		return m.counter.v
	case KindGauge:
		return m.gauge.v
	default:
		return float64(m.hist.n)
	}
}

// SampleRow is one time-series row: every registered metric's scalar at a
// sample instant.
type SampleRow struct {
	// At is the virtual-time sample instant.
	At simtime.Time
	// Values holds one scalar per metric, parallel to Series.Columns.
	Values []float64
}

// Series is the sampled time series of a registry.
type Series struct {
	// Columns names the metrics, in registration order, frozen at the
	// first sample.
	Columns []string
	// Rows lists samples in non-decreasing time order.
	Rows []SampleRow
}

// Registry holds one run's instruments and their sampled series. It is
// single-threaded: the simulation registers metrics at wiring time,
// updates them from hooks, and calls Sample on virtual-time intervals.
// One registry serves one run — re-registering a name panics.
type Registry struct {
	byName  map[string]int
	metrics []*metric
	series  Series
	frozen  bool // first Sample freezes the column set
	onSam   func(SampleRow)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

func (r *Registry) register(m *metric) {
	if r.frozen {
		panic(fmt.Sprintf("telemetry: register %q after first sample", m.name))
	}
	if !validName(m.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", m.name))
	}
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q (one registry serves one run)", m.name))
	}
	r.byName[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* without pulling in regexp.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Counter registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers a fixed-bucket histogram. Bounds must be strictly
// increasing upper bounds; an implicit +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	validateBounds(name, bounds)
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(&metric{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// Len returns how many metrics are registered.
func (r *Registry) Len() int { return len(r.metrics) }

// OnSample installs a hook invoked with each new row as it is sampled —
// a streaming tap for consumers that encode rows while the run is still
// going. The row's Values slice is owned by the series; treat it as
// read-only.
func (r *Registry) OnSample(fn func(SampleRow)) { r.onSam = fn }

// Reserve preallocates ring storage for n sample rows — the capacity the
// simulation negotiates from the run length so the steady-state sampling
// path never allocates. Each reserved slot carries its own Values buffer
// sized to the current metric count. Reserving less than the current
// capacity is a no-op; rows past the reservation still append, because the
// series never drops samples (determinism outranks bounded memory).
func (r *Registry) Reserve(n int) {
	if n <= cap(r.series.Rows) {
		return
	}
	rows := make([]SampleRow, n)
	used := len(r.series.Rows)
	copy(rows, r.series.Rows)
	for i := used; i < n; i++ {
		rows[i].Values = make([]float64, 0, len(r.metrics))
	}
	r.series.Rows = rows[:used]
}

// Reset re-arms a sampled registry for another run of the same wiring:
// instrument values return to zero and the row ring rewinds, keeping every
// slot and its Values buffer for recycling. The frozen column set persists
// — the reuse path never re-registers, so a reused run exports the exact
// column order a fresh run would freeze. The OnSample hook persists too.
func (r *Registry) Reset() {
	for _, m := range r.metrics {
		switch m.kind {
		case KindCounter:
			m.counter.v = 0
		case KindGauge:
			m.gauge.v = 0
		default:
			clear(m.hist.counts)
			m.hist.sum = 0
			m.hist.n = 0
		}
	}
	r.series.Rows = r.series.Rows[:0]
}

// Sample appends one time-series row at a virtual-time instant. Instants
// must be non-decreasing. The first sample freezes the column set:
// registering metrics afterwards panics, which keeps every row
// rectangular. Row storage is a recycling ring: slots left behind by
// Reserve (or by a previous run on a Reset registry) are reused in place,
// so a correctly reserved run samples without allocating.
//
//dvlint:hotpath runs at every telemetry sampling boundary
func (r *Registry) Sample(now simtime.Time) {
	if !r.frozen {
		r.frozen = true
		//dvlint:ignore hotalloc the column set is built once, at the first sample of a run
		r.series.Columns = make([]string, len(r.metrics))
		for i, m := range r.metrics {
			r.series.Columns[i] = m.name
		}
	}
	rows := r.series.Rows
	n := len(rows)
	if n > 0 && now < rows[n-1].At {
		panic(fmt.Sprintf("telemetry: sample at %v after %v", now, rows[n-1].At))
	}
	var row SampleRow
	if n < cap(rows) {
		rows = rows[:n+1]
		row = rows[n] // recycled slot: its Values buffer is reused below
		row.At = now
		if cap(row.Values) >= len(r.metrics) {
			row.Values = row.Values[:len(r.metrics)]
		} else {
			//dvlint:ignore hotalloc a slot reserved before the metric count grew; never on the negotiated path
			row.Values = make([]float64, len(r.metrics))
		}
	} else {
		//dvlint:ignore hotalloc ring grow path: only runs past the negotiated reservation
		row = SampleRow{At: now, Values: make([]float64, len(r.metrics))}
		//dvlint:ignore hotalloc same past-reservation grow path as the row above
		rows = append(rows, row)
	}
	for i, m := range r.metrics {
		row.Values[i] = m.sampleValue()
	}
	rows[len(rows)-1] = row
	r.series.Rows = rows
	if r.onSam != nil {
		r.onSam(row)
	}
}

// LastSampleAt returns the instant of the most recent row, if any.
func (r *Registry) LastSampleAt() (simtime.Time, bool) {
	if n := len(r.series.Rows); n > 0 {
		return r.series.Rows[n-1].At, true
	}
	return 0, false
}

// Series returns the sampled time series (shared, not copied).
func (r *Registry) Series() *Series { return &r.series }

// WindowRate measures an event rate over a trailing window of virtual
// time, with exactly the semantics of the health monitor's and obs's
// windowed-FDPS tracks: the window is truncated at stream start, an event
// sitting exactly on the cut is still inside, and the rate is
// events-in-window divided by the (truncated) window length.
type WindowRate struct {
	window simtime.Duration
	times  []simtime.Time
}

// NewWindowRate builds a tracker over the given window; the window must be
// positive.
func NewWindowRate(window simtime.Duration) *WindowRate {
	if window <= 0 {
		panic(fmt.Sprintf("telemetry: non-positive rate window %v", window))
	}
	return &WindowRate{window: window}
}

// Reset drops every recorded event, rewinding the tracker for a reused run.
func (w *WindowRate) Reset() { w.times = w.times[:0] }

// Observe records one event. Instants must be non-decreasing.
//
//dvlint:hotpath fed once per jank
func (w *WindowRate) Observe(at simtime.Time) { w.times = append(w.times, at) }

// Rate returns events per second over the window ending at now, pruning
// events that slid out.
//
//dvlint:hotpath queried at every display edge
func (w *WindowRate) Rate(now simtime.Time) float64 {
	cut := now.Add(-w.window)
	i := 0
	for i < len(w.times) && w.times[i] < cut {
		i++
	}
	w.times = w.times[i:]
	win := w.window
	if simtime.Duration(now) < win {
		win = simtime.Duration(now)
	}
	if win <= 0 {
		return 0
	}
	return float64(len(w.times)) / win.Seconds()
}
