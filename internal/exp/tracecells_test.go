package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dvsync/internal/obs"
	"dvsync/internal/par"
	"dvsync/internal/sim"
)

// digestCells exports every trace cell of the given experiments through
// the par worker pool and returns one digest over all export bytes.
func digestCells(t *testing.T, ids []string) string {
	t.Helper()
	exports := par.Map(len(ids), func(i int) []byte {
		var all bytes.Buffer
		for _, cell := range TraceCells(ids[i]) {
			all.WriteString(cell.Name)
			all.WriteByte('\n')
			if err := obs.ExportPerfetto(cell.Recorder, &all); err != nil {
				t.Errorf("%s: %v", cell.Name, err)
				return nil
			}
		}
		return all.Bytes()
	})
	h := sha256.New()
	for _, b := range exports {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestTraceCellDeterminismAcrossWorkers: the -trace-dir exports are
// byte-identical whether the cells are recorded serially or on a 4-wide
// worker pool — the same contract every experiment table already honours.
func TestTraceCellDeterminismAcrossWorkers(t *testing.T) {
	ids := []string{"fig7", "fig14"} // one 60 Hz cell pair, one 120 Hz
	defer par.SetWorkers(0)

	par.SetWorkers(1)
	serial := digestCells(t, ids)
	par.SetWorkers(4)
	wide := digestCells(t, ids)

	if serial != traceCellsPin {
		t.Errorf("trace-cell exports at workers=1 digest to %s, pinned %s", serial, traceCellsPin)
	}
	if serial != wide {
		t.Errorf("trace-cell exports diverge across worker widths: workers=1 %s, workers=4 %s",
			serial, wide)
	}
}

// TestTraceCellsShape: each experiment yields exactly one vsync and one
// dvsync cell over the same workload, with non-empty recordings.
func TestTraceCellsShape(t *testing.T) {
	cells := TraceCells("fig7")
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Name != "fig7-vsync" || cells[1].Name != "fig7-dvsync" {
		t.Fatalf("cell names = %s, %s", cells[0].Name, cells[1].Name)
	}
	for _, c := range cells {
		if c.Recorder.Len() == 0 {
			t.Errorf("%s: empty recording", c.Name)
		}
		m := obs.Build(c.Recorder)
		// D-VSync renders every slot; the VSync baseline skips overloaded
		// ones, so its trace can start fewer frames.
		if c.Mode == sim.ModeDVSync && len(m.Spans) != cellFrames {
			t.Errorf("%s: %d spans, want %d", c.Name, len(m.Spans), cellFrames)
		}
		if len(m.Spans) == 0 || len(m.Spans) > cellFrames {
			t.Errorf("%s: implausible span count %d", c.Name, len(m.Spans))
		}
		if un := m.Unmatched(); len(un) != 0 {
			t.Errorf("%s: %d unclassified events", c.Name, len(un))
		}
	}
}

// traceCellsPin is digestCells over fig7 and fig14, pinned so a change
// that alters every width's exports alike still fails.
const traceCellsPin = "7c942dcf40c7398d"
