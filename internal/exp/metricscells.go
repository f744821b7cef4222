package exp

import (
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
)

// CellMetrics is one canonical telemetry cell of an experiment: the same
// representative simulation TraceCells records, run with a live metrics
// registry instead of a trace recorder. dvbench's -metrics-dir flag
// exports each cell's Prometheus exposition and JSON snapshot so a
// report's numbers can be compared against what a live scrape of the same
// scenario would have shown.
type CellMetrics struct {
	// Name is the export file stem, "<experiment>-<mode>".
	Name string
	// Mode is the architecture the cell simulated.
	Mode sim.Mode
	// Registry holds the cell's sampled instruments.
	Registry *telemetry.Registry
}

// MetricsCells runs the canonical cells of one experiment, each with a
// fresh telemetry registry sampled every panel period.
func MetricsCells(id string) []CellMetrics {
	cells := canonicalCells(id)
	out := make([]CellMetrics, len(cells))
	for i, c := range cells {
		reg := telemetry.NewRegistry()
		c.cfg.Metrics = reg
		sim.Run(c.cfg)
		out[i] = CellMetrics{Name: c.name, Mode: c.cfg.Mode, Registry: reg}
	}
	return out
}
