package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dvsync/internal/par"
	"dvsync/internal/sim"
)

// demoQuickDuplicates is the duplicate-cell count DemoSpec(true) bakes
// in: the pixel5-rerun cohort repeats pixel5-moderate's four cells.
const demoQuickDuplicates = 4

// TestCensusDeterminismAcrossWorkers is the fleet contract: the same
// spec produces byte-identical aggregate output at -workers 1, 4 and 8,
// and the cache hit count matches the duplicate cells of the spec
// exactly — duplicates are simulated once, never twice and never
// miscounted by shard races.
func TestCensusDeterminismAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	spec := DemoSpec(true)
	var want []byte
	for _, w := range []int{1, 4, 8} {
		par.SetWorkers(w)
		res, err := NewEngine().Census(spec, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", w, err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d: census output differs from workers=1", w)
		}
		if res.CacheHits != demoQuickDuplicates {
			t.Errorf("workers=%d: cache hits = %d, want %d (the spec's duplicate cells)",
				w, res.CacheHits, demoQuickDuplicates)
		}
		if res.Simulated != res.UniqueCells {
			t.Errorf("workers=%d: simulated %d cells but %d are unique",
				w, res.Simulated, res.UniqueCells)
		}
		if res.Simulated+res.CacheHits != res.Cells {
			t.Errorf("workers=%d: simulated %d + hits %d != cells %d",
				w, res.Simulated, res.CacheHits, res.Cells)
		}
	}
}

// TestCensusCacheAccounting pins the memoisation ledger: the duplicated
// cohort is all hits, and a second census on the same engine simulates
// nothing while producing the identical result. The warm census answers
// every cell from the digest memo without generating a trace, so this is
// the memo's end-to-end guard.
func TestCensusCacheAccounting(t *testing.T) {
	eng := NewEngine()
	spec := DemoSpec(true)
	first, err := eng.Census(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rerun *CohortResult
	for _, c := range first.Cohorts {
		if c.Name == "pixel5-rerun" {
			rerun = c
		}
	}
	if rerun == nil {
		t.Fatal("demo spec lost its pixel5-rerun cohort")
	}
	if rerun.Simulated != 0 || rerun.CacheHits != rerun.Cells {
		t.Errorf("duplicated cohort: simulated=%d hits=%d cells=%d, want 0/%d/%d",
			rerun.Simulated, rerun.CacheHits, rerun.Cells, rerun.Cells, rerun.Cells)
	}

	second, err := eng.Census(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulated != 0 || second.CacheHits != second.Cells {
		t.Errorf("warm census: simulated=%d hits=%d, want 0/%d", second.Simulated, second.CacheHits, second.Cells)
	}
	for _, c := range second.Cohorts {
		if c.Simulated != 0 {
			t.Errorf("warm cohort %q simulated %d cells", c.Name, c.Simulated)
		}
	}
	// Cold and warm censuses must agree except for the hit accounting.
	if a, b := withoutAccounting(t, first), withoutAccounting(t, second); !bytes.Equal(a, b) {
		t.Errorf("warm census differs from the cold one beyond its hit accounting:\ncold:\n%s\nwarm:\n%s", a, b)
	}
}

// withoutAccounting renders a census result with its hit accounting
// removed — Simulated and CacheHits zeroed on the result and every
// cohort, and the two accounting counters dropped from every cohort's
// metrics — leaving what depends on the spec alone. It edits res.
func withoutAccounting(t *testing.T, res *Result) []byte {
	t.Helper()
	res.Simulated, res.CacheHits = 0, 0
	for _, c := range res.Cohorts {
		c.Simulated, c.CacheHits = 0, 0
		kept := c.Metrics.Metrics[:0]
		for _, m := range c.Metrics.Metrics {
			if m.Name != "fleet_cells_simulated_total" && m.Name != "fleet_cache_hits_total" {
				kept = append(kept, m)
			}
		}
		if dropped := len(c.Metrics.Metrics) - len(kept); dropped != 2 {
			t.Fatalf("cohort %q: dropped %d accounting counters, want 2", c.Name, dropped)
		}
		c.Metrics.Metrics = kept
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCensusStreamsCohortsInOrder: the onCohort tap fires once per
// cohort, in spec order, with the same aggregates the final result holds.
func TestCensusStreamsCohortsInOrder(t *testing.T) {
	var streamed []string
	res, err := NewEngine().Census(DemoSpec(true), func(c *CohortResult) {
		streamed = append(streamed, c.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Cohorts) {
		t.Fatalf("streamed %d cohorts, result has %d", len(streamed), len(res.Cohorts))
	}
	for i, c := range res.Cohorts {
		if streamed[i] != c.Name {
			t.Errorf("cohort %d streamed as %q, want %q", i, streamed[i], c.Name)
		}
	}
}

// TestCensusMatchesFreshRun: a pooled, possibly cached census cell
// reports exactly what an independent sim.Run of the same config
// measures — the cache and Runner pooling must be invisible.
func TestCensusMatchesFreshRun(t *testing.T) {
	spec := Spec{Cohorts: []Cohort{{
		Name: "solo", Device: "mate60", Hz: []int{120},
		Modes: []string{"dvsync"}, Workload: "heavy-tail",
		Frames: 300, Replicas: 1,
	}}}
	cohorts, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) != 1 || len(cohorts[0].cells) != 1 {
		t.Fatalf("expected one cell, got %+v", cohorts)
	}
	want := sim.Run(cohorts[0].cells[0].config())

	res, err := NewEngine().Census(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Cohorts[0]
	if got.MeanFDPS != want.FDPS() {
		t.Errorf("census FDPS %v, fresh run %v", got.MeanFDPS, want.FDPS())
	}
	if got.Janks != len(want.Janks) {
		t.Errorf("census janks %d, fresh run %d", got.Janks, len(want.Janks))
	}
}

// TestCacheEvictionCompacts: the engine's FIFO eviction overwrites the
// oldest slot of the result cache's key ring in place. Once the cache is
// full the ring's capacity never moves again — a re-slicing eviction
// (ring = ring[1:]) shrinks and reallocates the backing array forever
// instead — and the ring and the map hold the same, newest keys.
func TestCacheEvictionCompacts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < cacheCap; i++ {
		e.cache.add(fmt.Sprintf("digest-%d", i), nil)
	}
	base := cap(e.cache.ring)
	for i := 0; i < 3*cacheCap; i++ {
		e.cache.add(fmt.Sprintf("evict-%d", i), nil)
		if got := cap(e.cache.ring); got != base {
			t.Fatalf("insert %d: ring capacity moved %d -> %d; eviction re-slices instead of overwriting", i, base, got)
		}
	}
	if len(e.cache.ring) != cacheCap || len(e.cache.m) != cacheCap {
		t.Errorf("cache size %d / ring %d, want %d", len(e.cache.m), len(e.cache.ring), cacheCap)
	}
	for i, d := range e.cache.keys() {
		if want := fmt.Sprintf("evict-%d", 2*cacheCap+i); d != want {
			t.Fatalf("key %d (oldest first) is %q, want %q", i, d, want)
		}
		if _, ok := e.cache.m[d]; !ok {
			t.Fatalf("ring holds evicted digest %q", d)
		}
	}
}

// TestSpecValidation sweeps the rejection surface: every malformed spec
// is an error naming the problem, never a panicking run.
func TestSpecValidation(t *testing.T) {
	sev := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no cohorts", Spec{}, "at least one cohort"},
		{"unknown device", Spec{Cohorts: []Cohort{{Device: "iphone"}}}, "unknown device"},
		{"unknown workload", Spec{Cohorts: []Cohort{{Workload: "spiky"}}}, "unknown workload"},
		{"unknown mode", Spec{Cohorts: []Cohort{{Modes: []string{"turbo"}}}}, "unknown mode"},
		{"bad hz", Spec{Cohorts: []Cohort{{Hz: []int{0}}}}, "refresh rate"},
		{"single buffer", Spec{Cohorts: []Cohort{{Buffers: 1}}}, "double-buffer"},
		{"too many buffers", Spec{Cohorts: []Cohort{{Buffers: sim.MaxBuffers + 1}}}, "exceed the bound"},
		{"bad frames", Spec{Cohorts: []Cohort{{Frames: MaxFrames + 1}}}, "invalid frames"},
		{"severity without fault", Spec{Cohorts: []Cohort{{Severity: sev(0.5)}}}, "without a fault class"},
		{"severity with fault none", Spec{Cohorts: []Cohort{{Fault: "none", Severity: sev(0.5)}}}, "without a fault class"},
		{"unknown fault", Spec{Cohorts: []Cohort{{Fault: "gremlins"}}}, "unknown"},
		{"severity out of range", Spec{Cohorts: []Cohort{{Fault: "stall", Severity: sev(1.5)}}}, "outside [0, 1]"},
		{"duplicate names", Spec{Cohorts: []Cohort{{Name: "a"}, {Name: "a"}}}, "duplicate cohort name"},
		{"too many cells", Spec{Replicas: MaxReplicas,
			Cohorts: []Cohort{{Hz: []int{30, 60, 90, 120, 144, 165, 240, 360, 480}}}}, "expands past"},
		{"too many frames", Spec{Frames: MaxFrames, Replicas: MaxReplicas,
			Cohorts: []Cohort{{Hz: []int{60, 61, 62, 63, 64, 65, 66, 67}}}}, "expands past 15728640 simulated frames"},
		{"too many frames across cohorts", Spec{Replicas: MaxReplicas, Cohorts: []Cohort{
			{Name: "a", Hz: []int{60, 90, 120, 144}},
			{Name: "b", Hz: []int{60, 90, 120, 144}, Frames: DefaultFrames + 1},
		}}, "simulated frames"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: validated clean, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// fault "none" without severity is a clean cohort, not an error.
	if err := (Spec{Cohorts: []Cohort{{Fault: "none"}}}).Validate(); err != nil {
		t.Errorf("fault=none: %v, want clean validation", err)
	}
	// A full grid at the default frame count meets both bounds exactly.
	full := Spec{Replicas: MaxReplicas, Cohorts: []Cohort{{Hz: []int{60, 90, 120, 144, 165, 240, 360, 480}}}}
	if err := full.Validate(); err != nil {
		t.Errorf("a %d-cell grid at default frames: %v, want clean validation", MaxCells, err)
	}
}

// TestOversizedCohortRejectedBeforeExpansion: the cell and frame budgets
// are checked before a cohort's grid is built, so a small spec that would
// expand to millions of cells, or to billions of frames, is rejected
// without allocating its cells.
func TestOversizedCohortRejectedBeforeExpansion(t *testing.T) {
	for _, spec := range []Spec{
		{Cohorts: []Cohort{{
			Hz:       []int{30, 48, 60, 72, 90, 120, 144, 165, 240, 360},
			Modes:    []string{"vsync", "dvsync"},
			Replicas: MaxReplicas,
		}}},
		// 65 536 cells, within MaxCells, at 100 000 frames each.
		{Frames: MaxFrames, Replicas: MaxReplicas,
			Cohorts: []Cohort{{Hz: []int{60, 61, 62, 63, 64, 65, 66, 67}}}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := spec.Validate()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "expands past") {
			t.Fatalf("Validate = %v, want an expands-past error", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("rejecting %v allocated %d bytes, want under 1 MiB", err, got)
		}
	}
}

// BenchmarkCensus times censuses in cells/s: the full demo census cold
// on a fresh engine, and warm on an engine that has already run it, where
// every cell is a digest-memo and result-cache hit; and clean, a cold
// census of DemoSpec's two LTPO cohorts at 20 replicas, 100 cells none of
// which is anomalous, so no cell derives dump ids.
func BenchmarkCensus(b *testing.B) {
	spec := DemoSpec(false)
	run := func(b *testing.B, spec Spec, engine func() *Engine) *Result {
		var res *Result
		cells := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = engine().Census(spec, nil); err != nil {
				b.Fatal(err)
			}
			cells += res.Cells
		}
		b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		return res
	}
	b.Run("cold", func(b *testing.B) { run(b, spec, NewEngine) })
	b.Run("warm", func(b *testing.B) {
		eng := NewEngine()
		if _, err := eng.Census(spec, nil); err != nil {
			b.Fatal(err)
		}
		run(b, spec, func() *Engine { return eng })
	})
	b.Run("clean", func(b *testing.B) {
		res := run(b, cleanSpec(20), NewEngine)
		if res.Cells != 100 || res.Anomalies != 0 {
			b.Fatalf("clean census: %d cells, %d anomalous; want 100 and 0", res.Cells, res.Anomalies)
		}
	})
}
