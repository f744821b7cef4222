package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// marshalFloat is the reference encoding appendJSONFloat must reproduce:
// json.Marshal for finite values, null for the rest.
func marshalFloat(t testing.TB, v float64) string {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	return string(b)
}

// jsonFloatEdges are the values where encoding/json's float rule turns:
// signed zeros, both format cutoffs and their neighbours, negative
// exponents that need the e-0X cleanup, subnormals, the extremes and the
// non-finite values.
var jsonFloatEdges = []float64{
	0, math.Copysign(0, -1),
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	1e-7, 2.5e-9, -3e-8, 1e-10, 1.2345e-99, 1e-100,
	5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
	math.MaxFloat64, -math.MaxFloat64, 1e300, 1e22, 123456789e20,
	1, -1, 0.1, 1.0 / 3, 2.5, 16.666666666666668, 1e20, 99999999999999999999,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// splitmix64 is a fixed pseudo-random bit source, so the differential
// sweep covers the same values on every run.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestAppendJSONFloatMatchesMarshal: the reflection-free float encoder
// writes json.Marshal's bytes for every finite value and null for the
// rest, on the edge cases and on random bit patterns, scaled values and
// ratios; and it appends, leaving what b already holds in place.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	vals := append([]float64(nil), jsonFloatEdges...)
	var seed uint64 = 1
	for i := 0; i < 20000; i++ {
		bits := splitmix64(&seed)
		f := float64(bits>>11) / (1 << 53)
		vals = append(vals,
			math.Float64frombits(bits),
			f*math.Pow(10, float64(int(bits%80)-40)),
			float64(bits%100000)/float64(bits%997+1))
	}
	for _, v := range vals {
		want := marshalFloat(t, v)
		if got := string(appendJSONFloat(nil, v)); got != want {
			t.Fatalf("appendJSONFloat(%b) = %s, want %s", v, got, want)
		}
		if got := string(jsonFloat(v)); got != want {
			t.Fatalf("jsonFloat(%b) = %s, want %s", v, got, want)
		}
		if got := string(appendJSONFloat([]byte("x,"), v)); got != "x,"+want {
			t.Fatalf("appendJSONFloat onto a prefix = %s, want x,%s", got, want)
		}
	}
}

// TestRowAppendJSONMatchesMarshal: a row's AppendJSON is the plain
// struct encoding with each value as marshalFloat writes it, MarshalJSON
// returns the same bytes, and json.Marshal of the row (which compacts
// MarshalJSON's output) changes none of them.
func TestRowAppendJSONMatchesMarshal(t *testing.T) {
	type plainRow struct {
		AtNs   int64     `json:"at_ns"`
		Values []float64 `json:"values"`
	}
	rows := []RowSnapshot{
		{AtNs: 0},
		{AtNs: 5, Values: []float64{}},
		{AtNs: -7, Values: []float64{1}},
		{AtNs: 16666667, Values: []float64{1e-7, 0.1, 1e21, 5e-324, math.MaxFloat64}},
		{AtNs: math.MaxInt64, Values: jsonFloatEdges},
	}
	for _, r := range rows {
		want := "null"
		if r.Values != nil {
			vals := make([]string, len(r.Values))
			for i, v := range r.Values {
				vals[i] = marshalFloat(t, v)
			}
			want = "[" + strings.Join(vals, ",") + "]"
		}
		want = fmt.Sprintf(`{"at_ns":%d,"values":%s}`, r.AtNs, want)
		if plain, err := json.Marshal(plainRow(r)); err == nil && string(plain) != want {
			t.Errorf("plain struct encoding %s, want %s", plain, want)
		}
		if got := string(r.AppendJSON(nil)); got != want {
			t.Errorf("AppendJSON = %s, want %s", got, want)
		}
		if got := string(r.AppendJSON([]byte("data: "))); got != "data: "+want {
			t.Errorf("AppendJSON onto a prefix = %s", got)
		}
		if got, err := r.MarshalJSON(); err != nil || string(got) != want {
			t.Errorf("MarshalJSON = %s (%v), want %s", got, err, want)
		}
		if got, err := json.Marshal(r); err != nil || string(got) != want {
			t.Errorf("json.Marshal(row) = %s (%v), want %s", got, err, want)
		}
	}
}

// FuzzJSONFloat: for any bit pattern, appendJSONFloat writes what
// json.Marshal writes for the float64, or null when it is not finite.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range jsonFloatEdges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := string(appendJSONFloat(nil, v)), marshalFloat(t, v); got != want {
			t.Fatalf("appendJSONFloat(%#x) = %s, want %s", bits, got, want)
		}
	})
}
