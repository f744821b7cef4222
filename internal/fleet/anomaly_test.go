package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dvsync/internal/flight"
	"dvsync/internal/par"
	"dvsync/internal/sim"
)

// anomalySpec is a census guaranteed to contain anomalous cells: a
// stall-faulted cohort plus a clean low-rate cohort, with the faulted
// cohort duplicated so cache hits must reuse cached dumps.
func anomalySpec() Spec {
	sev := 0.8
	return Spec{
		Name: "anomaly-test", Frames: 400,
		Cohorts: []Cohort{
			{Name: "stalled", Device: "pixel5", Hz: []int{60},
				Modes: []string{"dvsync"}, Fault: "stall", Severity: &sev},
			{Name: "clean", Device: "pixel5", Hz: []int{60},
				Modes: []string{"dvsync"}},
			{Name: "stalled-again", Device: "pixel5", Hz: []int{60},
				Modes: []string{"dvsync"}, Fault: "stall", Severity: &sev},
		},
	}
}

// TestCensusAnomalyAccounting: anomalous cells are re-run with the flight
// recorder and their dumps indexed; cohort anomaly counts and dump ids
// are deterministic across worker widths; cache-hit cells reuse the
// cached dumps (a warm census re-reports identical anomalies without
// re-simulating); and every announced id resolves to decodable bytes.
func TestCensusAnomalyAccounting(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	spec := anomalySpec()
	type snap struct {
		anomalies int
		dumpIDs   []string
		dumps     map[string][]byte
	}
	var want *snap
	for _, w := range []int{1, 4, 8} {
		par.SetWorkers(w)
		eng := NewEngine()
		res, err := eng.Census(spec, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Simulated+res.CacheHits != res.Cells {
			t.Fatalf("workers=%d: simulated %d + hits %d != cells %d",
				w, res.Simulated, res.CacheHits, res.Cells)
		}
		if res.Anomalies == 0 {
			t.Fatalf("workers=%d: stall census found no anomalies (spec too tame)", w)
		}
		got := snap{anomalies: res.Anomalies, dumpIDs: eng.AnomalyIDs(),
			dumps: map[string][]byte{}}
		for _, id := range got.dumpIDs {
			data, ok := eng.AnomalyDump(id)
			if !ok {
				t.Fatalf("workers=%d: announced dump %q is not retrievable", w, id)
			}
			d, _, err := flight.DecodeDump(bytes.NewReader(data), "")
			if err != nil {
				t.Fatalf("workers=%d: dump %q does not decode: %v", w, id, err)
			}
			if len(d.Events) == 0 {
				t.Errorf("workers=%d: dump %q carries no events", w, id)
			}
			got.dumps[id] = data
		}

		// The duplicated cohort must report the same anomalies as the
		// original without contributing new dump ids.
		byName := map[string]*CohortResult{}
		for _, c := range res.Cohorts {
			byName[c.Name] = c
		}
		orig, again := byName["stalled"], byName["stalled-again"]
		if orig == nil || again == nil {
			t.Fatal("census lost a cohort")
		}
		if orig.Anomalies == 0 {
			t.Fatalf("workers=%d: stalled cohort has no anomalies", w)
		}
		if again.Anomalies != orig.Anomalies {
			t.Errorf("workers=%d: duplicated cohort reports %d anomalies, original %d",
				w, again.Anomalies, orig.Anomalies)
		}
		if again.Simulated != 0 {
			t.Errorf("workers=%d: duplicated cohort simulated %d cells", w, again.Simulated)
		}
		if !equalStrings(again.AnomalyDumps, orig.AnomalyDumps) {
			t.Errorf("workers=%d: duplicated cohort dump ids %v != original %v",
				w, again.AnomalyDumps, orig.AnomalyDumps)
		}

		// A warm repeat simulates nothing and reproduces the anomaly
		// accounting and dump bytes exactly.
		warm, err := eng.Census(spec, nil)
		if err != nil {
			t.Fatalf("workers=%d warm: %v", w, err)
		}
		if warm.Simulated != 0 || warm.Anomalies != res.Anomalies {
			t.Errorf("workers=%d warm: simulated=%d anomalies=%d, want 0/%d",
				w, warm.Simulated, warm.Anomalies, res.Anomalies)
		}
		for _, id := range got.dumpIDs {
			data, ok := eng.AnomalyDump(id)
			if !ok || !bytes.Equal(data, got.dumps[id]) {
				t.Errorf("workers=%d warm: dump %q changed or vanished", w, id)
			}
		}

		if want == nil {
			w1 := got
			want = &w1
			continue
		}
		if got.anomalies != want.anomalies || !equalStrings(got.dumpIDs, want.dumpIDs) {
			t.Errorf("workers=%d: anomalies=%d ids=%v differ from workers=1 (%d, %v)",
				w, got.anomalies, got.dumpIDs, want.anomalies, want.dumpIDs)
		}
		for id, data := range want.dumps {
			if !bytes.Equal(got.dumps[id], data) {
				t.Errorf("workers=%d: dump %q bytes differ from workers=1", w, id)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// anomalyDumpPins pins the sha256 of every dump anomalySpec produces. The
// dumps are a pure function of the cell configs, so any change to how or
// when they are sealed must leave the bytes /anomalies/{id} serves — and
// these pins — untouched.
var anomalyDumpPins = map[string]string{
	"08d597c65879-00-fault-onset": "159bd0b3333c06ef05e7b60aa5cead92a85b2098ceac6723dc0d0bafffccec96",
	"08d597c65879-01-jank-burst":  "313e13d756fdab33fe9c3b2373a1b4a46c77c9332f6d58a8c9927c3c1f4e5888",
	"08d597c65879-02-jank-burst":  "f99f8739c5de2e430c9ad62c5981ca2f70cdff3018d75f24a50a5f121f245221",
	"08d597c65879-03-jank-burst":  "4032c96b553176099e141528baea7643b102f489902f6c7c42aa79cb6d81d9b7",
	"08d597c65879-04-jank-burst":  "caec683ba8251e8ed72dd85ee96fe853ce7cf69151daf179c840f39984d77773",
	"08d597c65879-05-jank-burst":  "2a956acec6ee8ac2801bcdd250a6f2a446cc2a5492a02a87833a83f0b8eaa7eb",
	"08d597c65879-06-jank-burst":  "d46b779431cb922cdec9e8673534bfef08ce1dcffbef2b4afdb466d642c1c5d0",
	"08d597c65879-07-jank-burst":  "d2111c6a3e6308ed03c728d1d898ad9809ddfa0f7c9fa71cb9f62f010240d5f9",
	"08d597c65879-08-jank-burst":  "6dbadfc0b0651b5d383e9b7e62fe85770e9762b637f6a62770e74c934466b06e",
	"570a9146162d-00-jank-burst":  "0d9ec2367373c16a3cfc70d83b012b4be4419bc5a023bb533a5dd351c0b13cf2",
}

// TestAnomalyDumpBytesPinned: every dump of the anomaly census hashes to
// its pin, and an id the census never announced does not resolve.
func TestAnomalyDumpBytesPinned(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Census(anomalySpec(), nil); err != nil {
		t.Fatal(err)
	}
	ids := eng.AnomalyIDs()
	if len(ids) != len(anomalyDumpPins) {
		t.Errorf("census indexed %d dumps, %d are pinned", len(ids), len(anomalyDumpPins))
	}
	for _, id := range ids {
		data, ok := eng.AnomalyDump(id)
		if !ok {
			t.Fatalf("announced dump %q is not retrievable", id)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != anomalyDumpPins[id] {
			t.Errorf("dump %q: sha256 %s, pinned %q", id, got, anomalyDumpPins[id])
		}
	}
	for _, id := range []string{"", "nope", "000000000000-00-jank-burst"} {
		if data, ok := eng.AnomalyDump(id); ok || data != nil {
			t.Errorf("unknown id %q resolved to %d bytes", id, len(data))
		}
	}
}

// TestAnomalyDumpFetchDuringCensus: AnomalyDump replays its cell outside
// the engine lock, so fetches overlap each other and a census running on
// the same engine. Several goroutines fetch every id announced so far —
// the pinned ids plus those each census announces cohort by cohort —
// while censuses of fresh seeds simulate and index new dumps. Every fetch
// of an id must return the same decodable bytes. Meant for -race.
func TestAnomalyDumpFetchDuringCensus(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Census(anomalySpec(), nil); err != nil {
		t.Fatal(err)
	}
	pinned := eng.AnomalyIDs()
	const rounds = 3
	// Sized to every send, so no announcement ever blocks the census
	// that makes it. Each round sends the pinned ids plus at most
	// MaxDumps per cohort cell.
	spec := anomalySpec()
	announced := make(chan string, rounds*(len(pinned)+len(spec.Cohorts)*flight.DefaultMaxDumps))

	var (
		mu    sync.Mutex
		first = map[string][]byte{} // id → bytes of its first fetch
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range announced {
				data, ok := eng.AnomalyDump(id)
				if !ok {
					t.Errorf("announced dump %q is not retrievable", id)
					continue
				}
				if _, _, err := flight.DecodeDump(bytes.NewReader(data), ""); err != nil {
					t.Errorf("dump %q does not decode: %v", id, err)
				}
				if want, ok := anomalyDumpPins[id]; ok {
					if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
						t.Errorf("dump %q drifted from its pin under concurrent fetches", id)
					}
				}
				mu.Lock()
				if prev, ok := first[id]; !ok {
					first[id] = data
				} else if !bytes.Equal(prev, data) {
					t.Errorf("dump %q: two fetches returned different bytes", id)
				}
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for _, id := range pinned {
			announced <- id
		}
		spec.Seed = int64(r + 2) // fresh cells: this census simulates
		_, err := eng.Census(spec, func(c *CohortResult) {
			for _, id := range c.AnomalyDumps {
				announced <- id
			}
		})
		if err != nil {
			close(announced)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(announced)
	wg.Wait()

	if len(first) <= len(pinned) {
		t.Fatalf("fetched %d distinct dumps; the fresh censuses announced none", len(first))
	}
	for id, data := range first {
		if again, ok := eng.AnomalyDump(id); !ok || !bytes.Equal(again, data) {
			t.Errorf("dump %q: a serial fetch disagrees with the concurrent ones", id)
		}
	}
}

// within runs f on its own goroutine and fails the test if f has not
// returned after 10 s: a call stuck behind the census lock never would,
// so the test gives up instead of hanging.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s is still waiting on the running census", what)
	}
}

// TestAnomalyLookupDuringCensus: the dump index has its own lock, so ids a
// census announces through onCohort resolve while that census is still
// running — the "fetch GET /anomalies/{id} mid-census" promise of
// dvserve's /fleet stream. Each lookup runs on its own goroutine while
// onCohort holds the census up.
func TestAnomalyLookupDuringCensus(t *testing.T) {
	eng := NewEngine()
	announced := 0
	_, err := eng.Census(anomalySpec(), func(c *CohortResult) {
		for _, id := range c.AnomalyDumps {
			announced++
			var ids []string
			within(t, "AnomalyIDs", func() { ids = eng.AnomalyIDs() })
			if !slices.Contains(ids, id) {
				t.Errorf("announced dump %q missing from AnomalyIDs mid-census", id)
			}
			var ok bool
			within(t, "AnomalyDump("+id+")", func() { _, ok = eng.AnomalyDump(id) })
			if !ok {
				t.Errorf("announced dump %q is not retrievable mid-census", id)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if announced == 0 {
		t.Fatal("the census announced no dumps")
	}
}

// TestIndexDumpsDuringCensus: a scenario run registers its dumps through
// IndexDumps while a census may be running, so registration takes only
// the index lock. IndexDumps and AnomalyIDs, called from onCohort while
// the census holds the engine lock, both return.
func TestIndexDumpsDuringCensus(t *testing.T) {
	eng := NewEngine()
	replay := func() sim.Config { t.Error("IndexDumps replayed a run"); return sim.Config{} }
	cohorts := 0
	_, err := eng.Census(anomalySpec(), func(c *CohortResult) {
		id := fmt.Sprintf("scenario-%02d-jank-burst", cohorts)
		cohorts++
		within(t, "IndexDumps", func() { eng.IndexDumps("scenario", replay, []string{id}) })
		var ids []string
		within(t, "AnomalyIDs", func() { ids = eng.AnomalyIDs() })
		if !slices.Contains(ids, id) {
			t.Errorf("id %q registered mid-census is missing from AnomalyIDs", id)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cohorts == 0 {
		t.Fatal("the census completed no cohorts")
	}
}

// TestDumpIndexEvictsFIFO: the dump index keeps the newest dumpIndexCap
// ids. Registering past the bound evicts the oldest first, an evicted id
// no longer resolves, and registering an id already present keeps its
// place.
func TestDumpIndexEvictsFIFO(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Census(anomalySpec(), nil); err != nil {
		t.Fatal(err)
	}
	census := eng.AnomalyIDs()
	if len(census) == 0 {
		t.Fatal("the census indexed no dumps")
	}
	if _, ok := eng.AnomalyDump(census[0]); !ok {
		t.Fatalf("dump %q does not resolve before eviction", census[0])
	}

	replays := 0
	replay := func() sim.Config { replays++; return sim.Config{} }
	synthetic := make([]string, dumpIndexCap)
	for i := range synthetic {
		synthetic[i] = fmt.Sprintf("synthetic-%04d-jank-burst", i)
	}
	// Fill to the bound: the census ids stay, the oldest synthetic ids
	// are queued after them.
	eng.IndexDumps("synthetic", replay, synthetic[:dumpIndexCap-len(census)])
	if got := eng.AnomalyIDs(); len(got) != dumpIndexCap || !slices.Equal(got[:len(census)], census) {
		t.Fatalf("index at the bound holds %d ids, census ids first: %v", len(got), got[:len(census)])
	}
	// Re-registering present ids, census or synthetic, moves nothing.
	eng.IndexDumps("synthetic", replay, census)
	eng.IndexDumps("synthetic", replay, synthetic[:3])
	if got := eng.AnomalyIDs(); !slices.Equal(got, slices.Concat(census, synthetic[:dumpIndexCap-len(census)])) {
		t.Fatal("re-registering present ids changed the index order")
	}
	if _, ok := eng.AnomalyDump(census[0]); !ok {
		t.Fatalf("re-registering %q replaced the run that produced it", census[0])
	}
	// Past the bound the census ids go first, oldest first.
	eng.IndexDumps("synthetic", replay, synthetic[dumpIndexCap-len(census):])
	if got := eng.AnomalyIDs(); !slices.Equal(got, synthetic) {
		t.Fatalf("after %d more ids the index holds %d ids, want exactly the synthetic ones in order",
			len(census), len(got))
	}
	for _, id := range census {
		if data, ok := eng.AnomalyDump(id); ok || data != nil {
			t.Errorf("evicted dump %q still resolves", id)
		}
	}
	// An evicted id is new again: it re-enters at the back and evicts the
	// oldest.
	eng.IndexDumps("synthetic", replay, census[:1])
	if got := eng.AnomalyIDs(); got[0] != synthetic[1] || got[len(got)-1] != census[0] {
		t.Errorf("re-registered evicted id: index runs %q … %q, want %q … %q",
			got[0], got[len(got)-1], synthetic[1], census[0])
	}
	if replays != 0 {
		t.Errorf("indexing and failed lookups replayed %d runs, want none", replays)
	}
}
