package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dvsync/internal/sim"
)

// memoSpec covers every generator input a cell holds: three devices, two
// refresh rates each, both modes, a buffers override, every workload
// key, and a faulted cohort with and without an explicit severity.
func memoSpec(seed int64) Spec {
	sev := 0.3
	return Spec{Seed: seed, Frames: 60, Cohorts: []Cohort{
		{Name: "pixel5", Device: "pixel5", Hz: []int{60, 90}},
		{Name: "mate40", Device: "mate40", Hz: []int{60, 90}, Buffers: 5, Workload: "scattered"},
		{Name: "mate60", Device: "mate60", Hz: []int{90, 120}, Workload: "moderate"},
		{Name: "stall", Device: "mate60", Modes: []string{"dvsync"}, Workload: "heavy-tail", Fault: "stall"},
		{Name: "jitter", Device: "pixel5", Modes: []string{"vsync"}, Workload: "mixed",
			Fault: "jitter", Severity: &sev, Replicas: 2},
	}}
}

// TestDigestMemoMatchesConfigs is the memo's oracle: after censuses of
// memoSpec at two seeds, the memo holds exactly the cells the specs
// expand to, and each entry is the digest of the config its cell builds.
func TestDigestMemoMatchesConfigs(t *testing.T) {
	eng := NewEngine()
	want := map[cell]bool{}
	for _, seed := range []int64{1, 2} {
		spec := memoSpec(seed)
		cohorts, err := spec.resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range cohorts {
			for _, c := range rc.cells {
				want[c] = true
			}
		}
		if _, err := eng.Census(spec, nil); err != nil {
			t.Fatal(err)
		}
	}
	keys := eng.digests.keys()
	if len(keys) != len(want) {
		t.Errorf("memo holds %d cells, the specs expand to %d distinct cells", len(keys), len(want))
	}
	for _, c := range keys {
		if !want[c] {
			t.Errorf("memo holds a cell no spec expands to: %+v", c)
		}
		if got, recomputed := eng.digests.m[c], sim.ConfigDigest(c.config()); got != recomputed {
			t.Errorf("memo digest %s for %+v, recomputed %s", got, c, recomputed)
		}
	}
}

// TestCellIsAValueKey: the memo keys on cell, so a map-key match must be
// a value match. A pointer, slice, map, func, interface, chan or unsafe
// pointer anywhere inside cell would compare by identity, or not at all.
// The panel a cell rebuilds from its fields must be the device's own.
func TestCellIsAValueKey(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func,
			reflect.Interface, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s: cells holding it would not compare by value", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("cell", reflect.TypeOf(cell{}))

	for _, key := range []string{"pixel5", "mate40", "mate60"} {
		for _, hz := range []int{60, 120} {
			spec := Spec{Frames: 1, Cohorts: []Cohort{{Device: key, Hz: []int{hz}, Modes: []string{"vsync"}}}}
			cohorts, err := spec.resolve()
			if err != nil {
				t.Fatal(err)
			}
			dev, _ := deviceFor(key)
			dev.RefreshHz = hz
			if got, want := cohorts[0].cells[0].config().Panel, dev.Panel(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d Hz: cell panel %+v, device panel %+v", key, hz, got, want)
			}
		}
	}
}

// TestMemoClassifiesByDigest: cells with different inputs can build equal
// configs — at severity 0 a stall plan and a drift plan both inject
// nothing. The memo keys the two cohorts' cells apart, but classification
// compares config digests, so the second cohort is all cache hits.
func TestMemoClassifiesByDigest(t *testing.T) {
	zero := 0.0
	eng := NewEngine()
	res, err := eng.Census(Spec{Frames: 120, Cohorts: []Cohort{
		{Name: "stall", Fault: "stall", Severity: &zero},
		{Name: "drift", Fault: "drift", Severity: &zero},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stall, drift := res.Cohorts[0], res.Cohorts[1]
	if stall.Simulated != stall.Cells || drift.Simulated != 0 || drift.CacheHits != drift.Cells {
		t.Errorf("stall simulated %d of %d, drift simulated %d with %d hits of %d; want the drift cohort all hits",
			stall.Simulated, stall.Cells, drift.Simulated, drift.CacheHits, drift.Cells)
	}
	if res.UniqueCells != stall.Cells {
		t.Errorf("%d unique cells, want %d", res.UniqueCells, stall.Cells)
	}
	if got, want := len(eng.digests.m), stall.Cells+drift.Cells; got != want {
		t.Errorf("memo holds %d cells, want %d: both cohorts' inputs", got, want)
	}
}

// TestMemoHitWithEvictedResult: a memo hit whose outcome has left the
// result cache carries no config, so the worker builds one to simulate.
// Filling the result cache evicts every outcome of a cold census; the
// rerun answers each cell from the memo, simulates every unique cell
// again, and reproduces the cold census and its dumps byte for byte.
func TestMemoHitWithEvictedResult(t *testing.T) {
	eng := NewEngine()
	cold, err := eng.Census(anomalySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var coldJSON bytes.Buffer
	if err := cold.WriteJSON(&coldJSON); err != nil {
		t.Fatal(err)
	}
	ids := eng.AnomalyIDs()
	if len(ids) == 0 {
		t.Fatal("the census indexed no dumps")
	}
	dumps := map[string][]byte{}
	for _, id := range ids {
		dumps[id], _ = eng.AnomalyDump(id)
	}
	memo := eng.digests.keys()
	for i := 0; i < cacheCap; i++ {
		eng.cache.add(fmt.Sprintf("filler-%d", i), &cellOutcome{})
	}

	again, err := eng.Census(anomalySpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(eng.digests.keys(), memo) {
		t.Error("the rerun changed the memo: it missed cells it had seen")
	}
	if again.Simulated != again.UniqueCells || again.Simulated != cold.Simulated {
		t.Errorf("rerun simulated %d of %d unique cells, cold census %d", again.Simulated, again.UniqueCells, cold.Simulated)
	}
	var againJSON bytes.Buffer
	if err := again.WriteJSON(&againJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againJSON.Bytes(), coldJSON.Bytes()) {
		t.Errorf("rerun output differs from the cold census:\ncold:\n%s\nrerun:\n%s", coldJSON.Bytes(), againJSON.Bytes())
	}
	if got := eng.AnomalyIDs(); !slices.Equal(got, ids) {
		t.Errorf("rerun dump ids %v, cold %v", got, ids)
	}
	for _, id := range ids {
		if data, ok := eng.AnomalyDump(id); !ok || !bytes.Equal(data, dumps[id]) {
			t.Errorf("dump %q changed or vanished after the rerun", id)
		}
	}
}
