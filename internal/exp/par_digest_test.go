package exp

import (
	"bytes"
	"testing"

	"dvsync/internal/par"
	"dvsync/internal/scenarios"
	"dvsync/internal/workload"
)

// withWorkers runs fn under the given pool width and restores the default
// afterwards, so the package-level pool does not leak across tests.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	par.SetWorkers(n)
	defer par.SetWorkers(0)
	fn()
}

// renderExperiment renders one registry experiment (quick variant when
// available) to bytes under a given worker count, from a cold calibration
// cache so memoisation cannot mask a parallelism bug.
func renderExperiment(t *testing.T, id string, workers int) []byte {
	t.Helper()
	e, ok := find(id)
	if !ok {
		t.Fatalf("experiment %q not in registry", id)
	}
	resetCalibCache()
	var buf bytes.Buffer
	withWorkers(t, workers, func() {
		if e.RunQuick != nil {
			e.RunQuick(&buf)
		} else {
			e.Run(&buf)
		}
	})
	return buf.Bytes()
}

func find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TestParallelDigestEquality is the tentpole's determinism gate: rendering
// an experiment with the serial legacy path and with an 8-wide pool must
// produce byte-identical output. "future" covers the replica fan-out and
// calibration under par.Map; "faults" covers the (class, severity) matrix
// with seeded fault injection — the scenario most sensitive to stream
// splitting mistakes; "fleet" covers the census engine's shard→merge
// order and cache-hit accounting under par.MapLocal.
func TestParallelDigestEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment rendering is slow")
	}
	for _, id := range []string{"future", "faults", "fleet"} {
		t.Run(id, func(t *testing.T) {
			serial := renderExperiment(t, id, 1)
			if len(serial) == 0 {
				t.Fatalf("experiment %q produced no output", id)
			}
			for _, workers := range []int{2, 8} {
				if got := renderExperiment(t, id, workers); !bytes.Equal(got, serial) {
					t.Errorf("workers=%d output diverged from serial (%d vs %d bytes)",
						workers, len(got), len(serial))
				}
			}
		})
	}
}

// TestCalibrationMemoised proves the process-level cache returns the exact
// calibration the search produced — and that repeat lookups hit the cache
// instead of re-running the bisection.
func TestCalibrationMemoised(t *testing.T) {
	dev := scenarios.Pixel5
	p := scenarios.BaseProfile("memo-test", dev, scenarios.Moderate, workload.Deterministic)

	resetCalibCache()
	fresh := calibrateParams(p, 300, dev, dev.Buffers, 2.0, Seed)
	if got := calibSearches.Load(); got != 1 {
		t.Fatalf("first lookup ran %d searches, want 1", got)
	}
	// The search's work is deterministic, so it is pinned exactly, like
	// allocs/op: 27 evaluations × 5 replicas would be 135 simulations, but
	// replicas whose trace a halving leaves unchanged reuse their FDPS.
	const searchSims = 39
	if got := calibSims.Load(); got != searchSims {
		t.Errorf("search ran %d simulations, pinned %d", got, searchSims)
	}
	cached := calibrateParams(p, 300, dev, dev.Buffers, 2.0, Seed)
	if got := calibSearches.Load(); got != 1 {
		t.Errorf("second lookup ran the search again (%d searches total), want cache hit", got)
	}
	if got := calibSims.Load(); got != searchSims {
		t.Errorf("cache hit ran %d more simulations", got-searchSims)
	}
	if cached != fresh {
		t.Errorf("cached calibration %+v differs from fresh %+v", cached, fresh)
	}

	// A cold cache must reproduce the identical calibration: the memo is a
	// pure shortcut, never a source of state.
	resetCalibCache()
	recomputed := calibrateParams(p, 300, dev, dev.Buffers, 2.0, Seed)
	if recomputed != fresh {
		t.Errorf("recomputed calibration %+v differs from first run %+v", recomputed, fresh)
	}
	if got := calibSearches.Load(); got != 1 {
		t.Errorf("recompute after reset ran %d searches, want 1", got)
	}

	// Distinct targets must not collide in the key space.
	other := calibrateParams(p, 300, dev, dev.Buffers, 2.5, Seed)
	if other == fresh {
		t.Errorf("different target returned identical calibration %+v; key collision", other)
	}
	if got := calibSearches.Load(); got != 2 {
		t.Errorf("distinct key ran %d searches total, want 2", got)
	}
}
