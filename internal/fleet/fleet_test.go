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
// nothing while producing the identical result.
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
	var a, b bytes.Buffer
	if err := first.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	// Cold and warm censuses must agree except for the hit accounting.
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatal("empty census output")
	}
	for _, c := range second.Cohorts {
		if c.Simulated != 0 {
			t.Errorf("warm cohort %q simulated %d cells", c.Name, c.Simulated)
		}
	}
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

// TestCacheEvictionCompacts: the engine's FIFO eviction must compact the
// order slice in place. Once the cache is full its capacity never moves
// again — a re-slicing eviction (order = order[1:]) shrinks and
// reallocates the backing array forever instead.
func TestCacheEvictionCompacts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < cacheCap; i++ {
		e.insert(fmt.Sprintf("digest-%d", i), nil)
	}
	base := cap(e.order)
	for i := 0; i < 3*cacheCap; i++ {
		e.insert(fmt.Sprintf("evict-%d", i), nil)
		if got := cap(e.order); got != base {
			t.Fatalf("insert %d: order capacity moved %d -> %d; eviction re-slices instead of compacting", i, base, got)
		}
	}
	if len(e.order) != cacheCap || len(e.cache) != cacheCap {
		t.Errorf("cache size %d / order %d, want %d", len(e.cache), len(e.order), cacheCap)
	}
	for _, d := range e.order {
		if _, ok := e.cache[d]; !ok {
			t.Fatalf("order holds evicted digest %q", d)
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
}

// TestOversizedCohortRejectedBeforeExpansion: the cell budget is checked
// before a cohort's grid is built, so a small spec that would expand to
// millions of cells is rejected without allocating them.
func TestOversizedCohortRejectedBeforeExpansion(t *testing.T) {
	spec := Spec{Cohorts: []Cohort{{
		Hz:       []int{30, 48, 60, 72, 90, 120, 144, 165, 240, 360},
		Modes:    []string{"vsync", "dvsync"},
		Replicas: MaxReplicas,
	}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := spec.Validate()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "expands past") {
		t.Fatalf("Validate = %v, want an expands-past error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the spec allocated %d bytes, want under 1 MiB", got)
	}
}
