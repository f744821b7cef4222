package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dvsync/internal/par"
	"dvsync/internal/telemetry"
)

// digestMetricsCells exports every telemetry cell of the given experiments
// through the par worker pool and returns one digest over the Prometheus
// and JSON bytes of each.
func digestMetricsCells(t *testing.T, ids []string) string {
	t.Helper()
	exports := par.Map(len(ids), func(i int) []byte {
		var all bytes.Buffer
		for _, cell := range MetricsCells(ids[i]) {
			all.WriteString(cell.Name)
			all.WriteByte('\n')
			if err := cell.Registry.WritePrometheus(&all); err != nil {
				t.Errorf("%s: %v", cell.Name, err)
				return nil
			}
			if err := cell.Registry.WriteJSON(&all); err != nil {
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

// TestMetricsCellDeterminismAcrossWorkers: the -metrics-dir exports are
// byte-identical whether the cells run serially or on a 4-wide worker
// pool — the same contract the trace cells and experiment tables honour.
func TestMetricsCellDeterminismAcrossWorkers(t *testing.T) {
	ids := []string{"fig7", "fig14"} // one 60 Hz cell pair, one 120 Hz
	defer par.SetWorkers(0)

	par.SetWorkers(1)
	serial := digestMetricsCells(t, ids)
	par.SetWorkers(4)
	wide := digestMetricsCells(t, ids)

	if serial != metricsCellsPin {
		t.Errorf("metrics-cell exports at workers=1 digest to %s, pinned %s", serial, metricsCellsPin)
	}
	if serial != wide {
		t.Errorf("metrics-cell exports diverge across worker widths: workers=1 %s, workers=4 %s",
			serial, wide)
	}
}

// TestMetricsCellsShape: one vsync and one dvsync cell per experiment,
// each with presented frames counted and at least one sampled row.
func TestMetricsCellsShape(t *testing.T) {
	cells := MetricsCells("fig7")
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Name != "fig7-vsync" || cells[1].Name != "fig7-dvsync" {
		t.Fatalf("cell names = %s, %s", cells[0].Name, cells[1].Name)
	}
	for _, c := range cells {
		snap := c.Registry.Snapshot()
		if len(snap.Series.Rows) == 0 {
			t.Errorf("%s: no sampled rows", c.Name)
		}
		presented := -1.0
		for _, m := range snap.Metrics {
			if m.Name == telemetry.MetricFramesPresented {
				presented = m.Value
			}
		}
		if presented <= 0 {
			t.Errorf("%s: frames presented = %v, want > 0", c.Name, presented)
		}
	}
}

// metricsCellsPin is digestMetricsCells over fig7 and fig14, pinned so a
// change that alters every width's exports alike still fails.
const metricsCellsPin = "4f5f1a6aeb562f36"
