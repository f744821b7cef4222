// Package fleet is the batch census engine: it expands a declarative
// device-population spec into a deterministic grid of simulation cells,
// shards the cells over internal/par with pooled sim.Runners, and
// aggregates per-cohort FDPS/jank/latency distributions into
// internal/telemetry instruments. Identical cells — same panel, refresh,
// mode, workload, fault plan and seed — are memoised at two levels: a
// digest memo maps a cell's generator inputs to its sim.ConfigDigest, so
// a cell the engine has seen generates and digests no trace, and a
// content-addressed result cache maps that digest to the cell's outcome,
// so a cohort sharing a parameter set is simulated once fleet-wide.
//
// Determinism contract (DESIGN.md §14): cell expansion order is fixed
// (cohort → hz → mode → replica), cells are classified against the cache
// serially in that order, and shard results merge back serially in the
// same order. Census output is therefore byte-identical at every
// -workers width, and cache hit counts are exact, not racy.
package fleet

import (
	"fmt"

	"dvsync/internal/display"
	"dvsync/internal/fault"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// Expansion limits. A census is bounded work: the spec is rejected up
// front when it would expand past these, never truncated silently.
const (
	// MaxCells bounds the expanded grid of one census.
	MaxCells = 65536
	// MaxCohorts bounds the cohort list.
	MaxCohorts = 256
	// MaxReplicas bounds replicas per cohort cell.
	MaxReplicas = 4096
	// MaxFrames matches dvserve's per-run frame bound.
	MaxFrames = 100_000
	// MaxCensusFrames bounds the frames one census simulates, summed
	// over its cells: a full grid at DefaultFrames. A cohort's traces are
	// generated together, so this also bounds the trace memory of one
	// cohort.
	MaxCensusFrames = MaxCells * DefaultFrames
)

// Defaults applied by normalize when the spec leaves a field zero.
const (
	// DefaultSeed is the census base seed.
	DefaultSeed int64 = 1
	// DefaultFrames is the per-cell workload length.
	DefaultFrames = 240
	// DefaultSeverity matches dvserve's -fault-severity default.
	DefaultSeverity = 0.5
)

// Spec declares one census: a named population of cohorts plus
// spec-level defaults. The zero value of every optional field means
// "use the default" — an all-defaults spec still needs at least one
// cohort.
type Spec struct {
	// Name labels the census in results (optional).
	Name string `json:"name,omitempty"`
	// Seed is the base workload seed; replica r of any cell uses Seed+r.
	// 0 means DefaultSeed.
	Seed int64 `json:"seed,omitempty"`
	// Frames is the default per-cell workload length (0 = DefaultFrames).
	Frames int `json:"frames,omitempty"`
	// Replicas is the default replica count per cell (0 = 1).
	Replicas int `json:"replicas,omitempty"`
	// Cohorts lists the population segments; at least one is required.
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one population segment: a device model swept over refresh
// rates, architectures and replicas under one workload and fault plan.
type Cohort struct {
	// Name labels the cohort in aggregates ("" = cohort<N>). Names must
	// be unique within a spec.
	Name string `json:"name,omitempty"`
	// Device is the panel model: "pixel5", "mate40" or "mate60".
	// "" means pixel5.
	Device string `json:"device,omitempty"`
	// Hz lists panel refresh rates to sweep (empty = the device default).
	Hz []int `json:"hz,omitempty"`
	// Modes lists architectures to sweep: "vsync" and/or "dvsync"
	// (empty = both).
	Modes []string `json:"modes,omitempty"`
	// Buffers overrides the device's buffer-queue size (0 = device
	// default: Android triple buffering, OpenHarmony four).
	Buffers int `json:"buffers,omitempty"`
	// Workload selects the frame-cost shape: "default", "scattered",
	// "moderate", "heavy-tail" or "mixed" ("" = default).
	Workload string `json:"workload,omitempty"`
	// Fault injects a seeded fault plan: any internal/fault class, or
	// "none"/"" for clean runs.
	Fault string `json:"fault,omitempty"`
	// Severity is the fault severity in [0, 1]; only valid with a fault
	// class (nil = DefaultSeverity when a class is set).
	Severity *float64 `json:"severity,omitempty"`
	// Frames overrides the spec default for this cohort.
	Frames int `json:"frames,omitempty"`
	// Replicas overrides the spec default for this cohort.
	Replicas int `json:"replicas,omitempty"`
}

// deviceFor maps a spec device key to the Table 1 catalog.
func deviceFor(key string) (scenarios.Device, error) {
	switch key {
	case "", "pixel5":
		return scenarios.Pixel5, nil
	case "mate40":
		return scenarios.Mate40Pro, nil
	case "mate60":
		return scenarios.Mate60Pro, nil
	}
	return scenarios.Device{}, fmt.Errorf("unknown device %q (want pixel5, mate40 or mate60)", key)
}

// profileFor builds the workload profile for a cohort on a (refresh-
// overridden) device. Profile names are canonical per workload key — two
// cohorts differing only in their label expand to identical traces and
// therefore share cache cells.
func profileFor(key string, dev scenarios.Device) (workload.Profile, error) {
	switch key {
	case "", "default":
		return workload.DefaultProfile("fleet-default", dev.Period().Milliseconds()), nil
	case "scattered":
		return scenarios.BaseProfile("fleet-scattered", dev, scenarios.Scattered, workload.Deterministic), nil
	case "moderate":
		return scenarios.BaseProfile("fleet-moderate", dev, scenarios.Moderate, workload.Deterministic), nil
	case "heavy-tail":
		return scenarios.BaseProfile("fleet-heavy-tail", dev, scenarios.HeavyTail, workload.Deterministic), nil
	case "mixed":
		return scenarios.MixedRealWorldProfile(), nil
	}
	return workload.Profile{}, fmt.Errorf("unknown workload %q (want default, scattered, moderate, heavy-tail or mixed)", key)
}

// cell is one fully resolved simulation of the census grid, held as its
// generator inputs and nothing else. Every field is a plain value — no
// pointer, slice, map or func at any depth — so a cell is its own map
// key: two cells are equal exactly when they hold the same inputs, and
// config() builds the same config from both. The engine memoises each
// cell's config digest under it.
type cell struct {
	shape
	frames  int
	seed    int64 // trace seed (spec seed + replica index)
	profile workload.Profile
}

// shape is every input of a cell except those of its trace: the
// wired-graph shape. Cells sharing a shape share one pooled sim.Runner
// per worker, which swaps traces through RunTrace.
type shape struct {
	device        string // the panel fields scenarios.Device.Panel reads
	hz            int
	width, height int
	mode          sim.Mode
	buffers       int
	fault         string // normalized class ("" when clean)
	severity      float64
	faultSeed     int64
}

// config builds the cell's simulation configuration. The trace is
// generated here — deterministically from the profile and seed — so the
// returned config is exactly what sim.ConfigDigest keys the result cache
// on: two cells with equal configs are the same simulation.
func (c cell) config() sim.Config {
	faults, err := faultPlan(c.fault, c.severity, c.faultSeed)
	if err != nil {
		panic(err) // resolve validated every cohort's plan (faultsFor)
	}
	return sim.Config{
		Mode:    c.mode,
		Panel:   display.Config{Name: c.device, RefreshHz: c.hz, Width: c.width, Height: c.height},
		Buffers: c.buffers,
		Trace:   c.profile.Generate(c.frames, c.seed),
		Faults:  faults,
	}
}

// resolvedCohort is one cohort expanded to its cells, in deterministic
// hz → mode → replica order.
type resolvedCohort struct {
	name  string
	cells []cell
}

// Validate reports whether the spec would resolve; it is what /fleet
// checks before committing to a streamed response.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve normalizes defaults and expands the spec into its cell grid.
// The expansion order is the determinism anchor: cohorts in declaration
// order, then hz, then mode, then replica.
func (s Spec) resolve() ([]resolvedCohort, error) {
	if len(s.Cohorts) == 0 {
		return nil, fmt.Errorf("fleet: spec needs at least one cohort")
	}
	if len(s.Cohorts) > MaxCohorts {
		return nil, fmt.Errorf("fleet: %d cohorts exceed the %d bound", len(s.Cohorts), MaxCohorts)
	}
	seed := s.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	defFrames, err := boundedDefault("frames", s.Frames, DefaultFrames, MaxFrames)
	if err != nil {
		return nil, err
	}
	defReplicas, err := boundedDefault("replicas", s.Replicas, 1, MaxReplicas)
	if err != nil {
		return nil, err
	}
	out := make([]resolvedCohort, 0, len(s.Cohorts))
	names := make(map[string]bool, len(s.Cohorts))
	left := budget{cells: MaxCells, frames: MaxCensusFrames}
	for i, c := range s.Cohorts {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("cohort%d", i+1)
		}
		if names[name] {
			return nil, fmt.Errorf("fleet: duplicate cohort name %q", name)
		}
		names[name] = true
		rc, err := s.resolveCohort(c, seed, defFrames, defReplicas, &left)
		if err == errTooManyCells || err == errTooManyFrames {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: cohort %q: %w", name, err)
		}
		rc.name = name
		out = append(out, rc)
	}
	return out, nil
}

// Expansion-bound errors, returned unwrapped: they describe the whole
// spec, not one cohort.
var (
	errTooManyCells  = fmt.Errorf("fleet: spec expands past %d cells", MaxCells)
	errTooManyFrames = fmt.Errorf("fleet: spec expands past %d simulated frames", MaxCensusFrames)
)

// budget is what the cohorts resolved so far have left of a spec's
// expansion bounds.
type budget struct{ cells, frames int }

// resolveCohort expands one cohort within what is left of the budget and
// charges its cells and their frames to it. The grid's size is checked
// before any cell is built, so an oversized spec is rejected without
// allocating its grid or generating a trace.
func (s Spec) resolveCohort(c Cohort, seed int64, defFrames, defReplicas int, left *budget) (resolvedCohort, error) {
	dev, err := deviceFor(c.Device)
	if err != nil {
		return resolvedCohort{}, err
	}
	hzs := c.Hz
	if len(hzs) == 0 {
		hzs = []int{dev.RefreshHz}
	}
	modes := c.Modes
	if len(modes) == 0 {
		modes = []string{"vsync", "dvsync"}
	}
	buffers := c.Buffers
	if buffers == 0 {
		buffers = dev.Buffers
	}
	if buffers < 2 {
		return resolvedCohort{}, fmt.Errorf("%d buffers cannot double-buffer", buffers)
	}
	if buffers > sim.MaxBuffers {
		return resolvedCohort{}, fmt.Errorf("%d buffers exceed the bound of %d", buffers, sim.MaxBuffers)
	}
	frames, err := boundedDefault("frames", c.Frames, defFrames, MaxFrames)
	if err != nil {
		return resolvedCohort{}, err
	}
	replicas, err := boundedDefault("replicas", c.Replicas, defReplicas, MaxReplicas)
	if err != nil {
		return resolvedCohort{}, err
	}
	faultCls, faultSev, faultSeed, err := faultsFor(c, seed)
	if err != nil {
		return resolvedCohort{}, err
	}
	// Each factor is at most MaxCells before the product is taken, so the
	// product cannot overflow; dividing the frame budget keeps cells ×
	// frames from overflowing either.
	if len(hzs) > MaxCells || len(modes) > MaxCells {
		return resolvedCohort{}, errTooManyCells
	}
	n := len(hzs) * len(modes) * replicas
	if n > left.cells {
		return resolvedCohort{}, errTooManyCells
	}
	if n > left.frames/frames {
		return resolvedCohort{}, errTooManyFrames
	}
	left.cells -= n
	left.frames -= n * frames
	cells := make([]cell, 0, n)
	for _, hz := range hzs {
		if hz <= 0 || hz > 1000 {
			return resolvedCohort{}, fmt.Errorf("invalid refresh rate %d (want 1..1000)", hz)
		}
		d := dev
		d.RefreshHz = hz
		prof, err := profileFor(c.Workload, d)
		if err != nil {
			return resolvedCohort{}, err
		}
		panel := d.Panel()
		for _, m := range modes {
			var mode sim.Mode
			switch m {
			case "vsync":
				mode = sim.ModeVSync
			case "dvsync":
				mode = sim.ModeDVSync
			default:
				return resolvedCohort{}, fmt.Errorf("unknown mode %q (want vsync or dvsync)", m)
			}
			sh := shape{
				device: panel.Name, hz: panel.RefreshHz, width: panel.Width, height: panel.Height,
				mode: mode, buffers: buffers,
				fault: faultCls, severity: faultSev, faultSeed: faultSeed,
			}
			for r := 0; r < replicas; r++ {
				cells = append(cells, cell{shape: sh, frames: frames, seed: seed + int64(r), profile: prof})
			}
		}
	}
	return resolvedCohort{cells: cells}, nil
}

// faultsFor normalizes the cohort's fault inputs and validates, once per
// cohort, the plan cell.config builds from them. The plan is seeded by
// the spec seed — not the replica index — so replicas of a faulted cell
// share one wired fault config and can share a pooled Runner. A clean
// cohort's fault seed is 0: it seeds nothing.
func faultsFor(c Cohort, seed int64) (cls string, sev float64, faultSeed int64, err error) {
	cls = c.Fault
	if cls == "none" {
		cls = ""
	}
	if cls == "" {
		if c.Severity != nil {
			return "", 0, 0, fmt.Errorf("severity %v without a fault class has no effect", *c.Severity)
		}
		return "", 0, 0, nil
	}
	sev = DefaultSeverity
	if c.Severity != nil {
		sev = *c.Severity
	}
	if _, err = faultPlan(cls, sev, seed); err != nil {
		return "", 0, 0, err
	}
	return cls, sev, seed, nil
}

// faultPlan builds a cell's fault plan from its fault inputs (nil when
// clean). The injection window mirrors dvserve's: onset after a 500 ms
// warm-up, active for the rest of the run.
func faultPlan(cls string, sev float64, seed int64) (*fault.Config, error) {
	if cls == "" {
		return nil, nil
	}
	return fault.Scenario(cls, sev,
		simtime.Time(simtime.FromMillis(500)), simtime.Time(simtime.FromSeconds(3600)), seed)
}

// boundedDefault applies a zero-means-default rule under an upper bound.
func boundedDefault(what string, v, def, max int) (int, error) {
	if v == 0 {
		v = def
	}
	if v < 0 || v > max {
		return 0, fmt.Errorf("invalid %s %d (want 1..%d)", what, v, max)
	}
	return v, nil
}
