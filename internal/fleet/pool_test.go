package fleet

import (
	"slices"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/par"
	"dvsync/internal/sim"
)

// freshFlightRun runs cfg on a newly wired simulation with a new flight
// ring attached, as AnomalyDump's replay does, and returns the ring.
func freshFlightRun(cfg sim.Config) *flight.Ring {
	ring := flight.New(flight.Config{})
	cfg.Recorder = ring
	sim.Run(cfg)
	return ring
}

// poolSpec has a cohort per fault class, each in both modes at two rates,
// so one worker runs anomalous cells of several shapes back to back, and
// two replicas, so a pooled Runner serves more than one cell of a shape.
// Its last cohort's cells each reach flight.DefaultMaxDumps: missed-vsync
// at severity 1 on pixel5 at 60 Hz over 600 frames, in both modes.
func poolSpec() Spec {
	var cohorts []Cohort
	for _, cls := range fault.Classes() {
		cohorts = append(cohorts, Cohort{Name: cls, Device: "pixel5", Hz: []int{60, 90}, Fault: cls})
	}
	full := 1.0
	cohorts = append(cohorts, Cohort{Name: "capped", Device: "pixel5", Hz: []int{60},
		Fault: "missed-vsync", Severity: &full, Frames: 600})
	return Spec{Name: "pool-test", Frames: 300, Replicas: 2, Cohorts: cohorts}
}

// TestPooledFlightIDsMatchFreshReplay: an anomalous cell names its dumps
// from its run on its worker's pooled bare Runner, whose graph earlier
// cells of several shapes have used, through sim's DumpIDs. The ids must
// equal those of a fresh replay under a new ring — the run AnomalyDump
// seals the dump from — at every -workers width. A derivation that
// merged symptoms out of order, missed the cap, or read a previous run's
// state names different dumps.
//
// Census cells only ever trigger fault-onset and jank-burst dumps:
// config() enables no fallback supervisor, and no fault class trips the
// watchdog at severity 0.5 or 1. So this test does not reach the fallback
// and watchdog triggers; internal/sim's derivation tests do.
func TestPooledFlightIDsMatchFreshReplay(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	spec := poolSpec()
	cohorts, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := map[cell][]string{} // fresh-replay ids of every cell
	for _, rc := range cohorts {
		for _, c := range rc.cells {
			cfg := c.config()
			want[c] = freshFlightRun(cfg).DumpIDs(sim.ConfigDigest(cfg))
		}
	}
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		eng := NewEngine()
		if _, err := eng.Census(spec, nil); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		anomalous, capped, mixed := 0, 0, 0
		for _, rc := range cohorts {
			shapes := map[shape]bool{} // shapes with an anomalous cell
			for _, c := range rc.cells {
				out := eng.cache.m[eng.digests.m[c]]
				if out == nil {
					t.Fatalf("workers=%d: cohort %s: a cell has no cached outcome", w, rc.name)
				}
				if !out.anomalous {
					continue
				}
				anomalous++
				shapes[c.shape] = true
				if !slices.Equal(out.dumpIDs, want[c]) {
					t.Errorf("workers=%d: cohort %s, %v at %d Hz, seed %d: pooled ids %v, fresh replay %v",
						w, rc.name, c.mode, c.hz, c.seed, out.dumpIDs, want[c])
				}
				if rc.name == "capped" && len(out.dumpIDs) == flight.DefaultMaxDumps {
					capped++
				}
			}
			if len(shapes) > 1 {
				mixed++
			}
		}
		if mixed == 0 {
			t.Errorf("workers=%d: no cohort has anomalous cells in more than one shape", w)
		}
		if capped != 4 {
			t.Errorf("workers=%d: %d capped cells reached %d dumps, want all 4", w, capped, flight.DefaultMaxDumps)
		}
		if anomalous < len(want)/4 {
			t.Errorf("workers=%d: only %d of %d cells anomalous (spec too tame)", w, anomalous, len(want))
		}
	}
}

// cleanSpec is DemoSpec's two LTPO cohorts: five shapes whose cells are
// all clean at seed 7 (BenchmarkCensus/clean).
func cleanSpec(replicas int) Spec {
	spec := DemoSpec(false)
	spec.Cohorts = spec.Cohorts[1:3]
	spec.Replicas = replicas
	return spec
}
