package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
)

// SnapshotSchemaVersion versions the JSON snapshot format.
const SnapshotSchemaVersion = 1

// Snapshot is the point-in-time JSON view of a registry: every metric's
// current state plus the sampled time series. All times are virtual-clock
// nanoseconds (exact integers, never floats) so downstream consumers — the
// obs bridge in particular — can match sample instants without rounding.
type Snapshot struct {
	// Schema is SnapshotSchemaVersion.
	Schema int `json:"schema"`
	// AtNs is the last sample instant (0 before any sample).
	AtNs int64 `json:"at_ns"`
	// Metrics lists current metric states sorted by name.
	Metrics []MetricSnapshot `json:"metrics"`
	// Series is the sampled time series.
	Series SeriesSnapshot `json:"series"`
}

// MetricSnapshot is one metric's state inside a Snapshot.
type MetricSnapshot struct {
	// Name and Help identify the metric.
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Value is the counter total or gauge value (absent for histograms).
	Value float64 `json:"value"`
	// Sum / Count / Buckets describe a histogram (empty otherwise).
	Sum     float64          `json:"sum,omitempty"`
	Count   uint64           `json:"count,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	// LE is the inclusive upper bound, formatted like the Prometheus le
	// label ("+Inf" for the last bucket).
	LE string `json:"le"`
	// Count is the cumulative count of observations <= LE.
	Count uint64 `json:"count"`
}

// SeriesSnapshot is the sampled time series inside a Snapshot.
type SeriesSnapshot struct {
	// Columns names the metrics, in registration order.
	Columns []string `json:"columns"`
	// Rows lists sample rows in time order.
	Rows []RowSnapshot `json:"rows"`
}

// RowSnapshot is one sample row inside a Snapshot.
type RowSnapshot struct {
	// AtNs is the virtual-time sample instant in nanoseconds.
	AtNs int64 `json:"at_ns"`
	// Values holds one scalar per column.
	Values []float64 `json:"values"`
}

// fmtFloat renders a float the way both writers do: shortest
// representation that round-trips, identical on every platform.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// jsonFloat renders v exactly as encoding/json would, except that
// non-finite values — which bare JSON cannot represent and json.Marshal
// rejects wholesale — encode as null. Percentiles over empty sample sets
// are legitimately NaN (metrics.Percentile), and one undefined column
// must not make a whole row or snapshot vanish from an export.
func jsonFloat(v float64) json.RawMessage { return appendJSONFloat(nil, v) }

// appendJSONFloat appends jsonFloat(v) to b without reflection. Finite
// values follow encoding/json's float64 rule exactly: the shortest
// round-trip digits in 'f' form, or in 'e' form when |v| < 1e-6 or
// |v| >= 1e21, with a one-digit negative exponent unpadded (e-7, not
// e-07). TestAppendJSONFloatMatchesMarshal and FuzzJSONFloat hold it to
// json.Marshal byte for byte.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendJSON appends the row's JSON encoding to b: non-finite values as
// null, finite ones byte-identical to the reflection path. Streams encode
// their sample rows through it into a reused buffer.
func (r RowSnapshot) AppendJSON(b []byte) []byte {
	b = append(b, `{"at_ns":`...)
	b = strconv.AppendInt(b, r.AtNs, 10)
	b = append(b, `,"values":`...)
	if r.Values == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, v := range r.Values {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, "]}"...)
}

// MarshalJSON encodes the row as AppendJSON does.
func (r RowSnapshot) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(make([]byte, 0, 16+12*len(r.Values))), nil
}

// MarshalJSON encodes the metric with non-finite values as null; field
// set, order and omission rules match the plain struct encoding.
func (m MetricSnapshot) MarshalJSON() ([]byte, error) {
	type shadow struct {
		Name    string           `json:"name"`
		Help    string           `json:"help,omitempty"`
		Kind    string           `json:"kind"`
		Value   json.RawMessage  `json:"value"`
		Sum     json.RawMessage  `json:"sum,omitempty"`
		Count   uint64           `json:"count,omitempty"`
		Buckets []BucketSnapshot `json:"buckets,omitempty"`
	}
	s := shadow{Name: m.Name, Help: m.Help, Kind: m.Kind,
		Value: jsonFloat(m.Value), Count: m.Count, Buckets: m.Buckets}
	if m.Sum != 0 { // NaN compares unequal, so a poisoned sum still exports (as null)
		s.Sum = jsonFloat(m.Sum)
	}
	return json.Marshal(s)
}

// Snapshot captures the registry's current state. The result is detached:
// later updates to the registry do not modify it (series rows are copied
// by reference but never mutated in place).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Schema: SnapshotSchemaVersion,
		Series: SeriesSnapshot{
			Columns: append([]string(nil), r.series.Columns...),
			Rows:    make([]RowSnapshot, len(r.series.Rows)),
		},
	}
	if at, ok := r.LastSampleAt(); ok {
		s.AtNs = int64(at)
	}
	for i, row := range r.series.Rows {
		s.Series.Rows[i] = RowSnapshot{AtNs: int64(row.At), Values: row.Values}
	}
	s.Metrics = make([]MetricSnapshot, 0, len(r.metrics))
	for _, m := range r.sortedMetrics() {
		ms := MetricSnapshot{Name: m.name, Help: m.help, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			ms.Value = m.counter.v
		case KindGauge:
			ms.Value = m.gauge.v
		case KindHistogram:
			h := m.hist
			ms.Sum, ms.Count = h.sum, h.n
			ms.Buckets = make([]BucketSnapshot, 0, len(h.counts))
			var cum uint64
			for i, c := range h.counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmtFloat(h.bounds[i])
				}
				ms.Buckets = append(ms.Buckets, BucketSnapshot{LE: le, Count: cum})
			}
		}
		s.Metrics = append(s.Metrics, ms)
	}
	return s
}

// sortedMetrics returns the metrics in name order (the exposition order of
// both writers).
func (r *Registry) sortedMetrics() []*metric {
	out := append([]*metric(nil), r.metrics...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
// Field order is fixed by the struct definitions, floats use Go's shortest
// round-trip encoding: byte-identical for identical registry states.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and writes it as JSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }

// WritePrometheus writes the text exposition format (version 0.0.4):
// HELP/TYPE headers, cumulative le-labelled buckets with _sum and _count
// for histograms, metrics in sorted-name order. Deterministic for
// identical registry states.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.sortedMetrics() {
		if m.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(m.name)
			bw.WriteByte(' ')
			bw.WriteString(m.help)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(m.name)
		bw.WriteByte(' ')
		bw.WriteString(m.kind.String())
		bw.WriteByte('\n')
		switch m.kind {
		case KindCounter, KindGauge:
			bw.WriteString(m.name)
			bw.WriteByte(' ')
			bw.WriteString(fmtFloat(m.sampleValue()))
			bw.WriteByte('\n')
		case KindHistogram:
			h := m.hist
			var cum uint64
			for i, c := range h.counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmtFloat(h.bounds[i])
				}
				bw.WriteString(m.name)
				bw.WriteString(`_bucket{le="`)
				bw.WriteString(le)
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatUint(cum, 10))
				bw.WriteByte('\n')
			}
			bw.WriteString(m.name)
			bw.WriteString("_sum ")
			bw.WriteString(fmtFloat(h.sum))
			bw.WriteByte('\n')
			bw.WriteString(m.name)
			bw.WriteString("_count ")
			bw.WriteString(strconv.FormatUint(h.n, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
