package exp

import (
	"dvsync/internal/display"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// CellTrace is one canonical recorded cell of an experiment: a
// representative simulation of one architecture under the experiment's
// panel rate, with the full structured event trace attached. dvbench's
// -trace-dir flag exports one Perfetto file per cell so every table in a
// report can be cross-examined frame by frame.
type CellTrace struct {
	// Name is the export file stem, "<experiment>-<mode>".
	Name string
	// Mode is the architecture the cell simulated.
	Mode sim.Mode
	// Recorder holds the cell's recorded events.
	Recorder *trace.Recorder
}

// cellFrames is the canonical cell length: long enough to show steady
// state, janks and queue dynamics, short enough that a full -trace-dir
// sweep stays cheap.
const cellFrames = 240

// cellHz returns the panel rate a cell records at: experiments built on
// high-refresh panels trace at 120 Hz, everything else at the 60 Hz
// baseline.
func cellHz(id string) int {
	switch id {
	case "fig14", "future", "fig12", "fig13":
		return 120
	default:
		return 60
	}
}

// cell is one canonical cell of an experiment before an observer is
// attached: its export stem, "<experiment>-<mode>", and its config.
type cell struct {
	name string
	cfg  sim.Config
}

// canonicalCells returns the canonical cells of one experiment — a VSync
// and a D-VSync run over the identical exp.Seed workload at cellHz. Both
// exports attach their observer to these configs, so the cells are a pure
// function of the experiment ID and exports are byte-identical across runs
// and -workers widths.
func canonicalCells(id string) [2]cell {
	hz := cellHz(id)
	p := workload.DefaultProfile(id, simtime.PeriodForHz(hz).Milliseconds())
	tr := p.Generate(cellFrames, Seed)
	panel := display.Config{Name: id, RefreshHz: hz}
	return [2]cell{
		{id + "-vsync", sim.Config{Mode: sim.ModeVSync, Panel: panel, Buffers: 3, Trace: tr}},
		{id + "-dvsync", sim.Config{Mode: sim.ModeDVSync, Panel: panel, Buffers: 4, Trace: tr}},
	}
}

// TraceCells records the canonical cells of one experiment, each with a
// trace recorder.
func TraceCells(id string) []CellTrace {
	cells := canonicalCells(id)
	out := make([]CellTrace, len(cells))
	for i, c := range cells {
		rec := trace.NewRecorder()
		c.cfg.Recorder = rec
		sim.Run(c.cfg)
		out[i] = CellTrace{Name: c.name, Mode: c.cfg.Mode, Recorder: rec}
	}
	return out
}
