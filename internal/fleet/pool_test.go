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
// two replicas, so a flight Runner serves more than one cell of a shape.
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

// TestPooledFlightIDsMatchFreshReplay: an anomalous cell learns its dump
// ids from a re-run on its worker's pooled flight Runner, whose graph,
// ring and dump buffers earlier cells of the shape have used. The ids
// must equal those of a fresh replay under a new ring — the run
// AnomalyDump seals the dump from — at every -workers width. A ring that
// kept a previous run's cooldowns or dump count, or a flight Runner
// shared across shapes, names different dumps.
//
// Census cells only ever trigger fault-onset and jank-burst dumps:
// config() enables no fallback supervisor, and no fault class trips the
// watchdog at severity 0.5 or 1. So this test does not reach the fallback
// and watchdog triggers; the flight package's own reuse tests do.
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
// all clean at seed 7.
func cleanSpec(replicas int) Spec {
	spec := DemoSpec(false)
	spec.Cohorts = spec.Cohorts[1:3]
	spec.Replicas = replicas
	return spec
}

// TestCleanCellsBuildNoFlightRunner: clean cells run on the bare pooled
// Runner alone, so a worker that has run only clean cells has wired no
// ring. One anomalous cell then builds the flight half of its own shape,
// and of no other.
func TestCleanCellsBuildNoFlightRunner(t *testing.T) {
	cohorts, err := cleanSpec(2).resolve()
	if err != nil {
		t.Fatal(err)
	}
	wk := newWorker()
	for _, rc := range cohorts {
		for _, c := range rc.cells {
			cfg := c.config()
			if out := wk.run(plan{cell: c, cfg: cfg, digest: sim.ConfigDigest(cfg)}); out.anomalous {
				t.Fatalf("cohort %s: cell at %d Hz, seed %d is anomalous", rc.name, c.hz, c.seed)
			}
		}
	}
	check := func(when string, flown shape) {
		t.Helper()
		for sh, pl := range wk.pools {
			if got := pl.flight != nil || pl.ring != nil; got != (sh == flown) {
				t.Errorf("%s: shape %s at %d Hz has a flight half: %v", when, sh.device, sh.hz, got)
			}
		}
	}
	if len(wk.pools) != 5 {
		t.Fatalf("worker pooled %d shapes, want 5", len(wk.pools))
	}
	check("after clean cells", shape{})

	sev := 0.8
	stalled, err := Spec{Frames: 400, Cohorts: []Cohort{{Device: "pixel5", Hz: []int{60},
		Modes: []string{"dvsync"}, Fault: "stall", Severity: &sev}}}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := stalled[0].cells[0]
	cfg := c.config()
	if out := wk.run(plan{cell: c, cfg: cfg, digest: sim.ConfigDigest(cfg)}); !out.anomalous {
		t.Fatal("the stalled cell is not anomalous")
	}
	check("after a stalled cell", c.shape)
}
