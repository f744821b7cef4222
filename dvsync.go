// Package dvsync is a full reproduction of "D-VSync: Decoupled Rendering
// and Displaying for Smartphone Graphics" (Wu et al., ASPLOS 2025) as a Go
// library.
//
// The package is the public facade over the reproduction's building blocks:
//
//   - a deterministic discrete-event simulation of the smartphone rendering
//     stack — panel, hardware/software VSync signals, BufferQueue, and the
//     two-stage UI/render pipeline;
//   - the conventional VSync architecture (Project-Butter style triple
//     buffering) as the baseline;
//   - D-VSync itself: the Frame Pre-Executor (FPE), the Display Time
//     Virtualizer (DTV), the dual-channel decoupling APIs, the Input
//     Prediction Layer (IPL), and the LTPO variable-refresh co-design;
//   - workload models calibrated to the paper's measured baselines, and the
//     experiment harness that regenerates every table and figure of the
//     evaluation.
//
// # Quick start
//
//	profile := dvsync.Profile{
//		Name: "my-app", ShortMeanMs: 6, ShortSigmaMs: 2,
//		LongRatio: 0.05, LongScaleMs: 22, LongAlpha: 2.3,
//		Burstiness: 0.2, UIShare: 0.35,
//	}
//	trace := profile.Generate(1000, 42)
//	baseline := dvsync.Run(dvsync.Config{
//		Mode: dvsync.VSync, Panel: dvsync.Pixel5.Panel(),
//		Buffers: 3, Trace: trace,
//	})
//	decoupled := dvsync.Run(dvsync.Config{
//		Mode: dvsync.DVSync, Panel: dvsync.Pixel5.Panel(),
//		Buffers: 4, Trace: trace,
//	})
//	fmt.Printf("FDPS %.2f → %.2f\n", baseline.FDPS(), decoupled.FDPS())
package dvsync

import (
	"dvsync/internal/anim"
	"dvsync/internal/autotest"
	"dvsync/internal/buffer"
	"dvsync/internal/core"
	"dvsync/internal/display"
	"dvsync/internal/exp"
	"dvsync/internal/fault"
	"dvsync/internal/fleet"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/input"
	"dvsync/internal/ipl"
	"dvsync/internal/ltpo"
	"dvsync/internal/metrics"
	"dvsync/internal/obs"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// Virtual time.
type (
	// Time is an instant on the simulation clock (ns since t = 0).
	Time = simtime.Time
	// Duration is a span of simulated time in ns.
	Duration = simtime.Duration
)

// Time helpers re-exported from the simulation clock.
var (
	// FromMillis converts milliseconds to a Duration.
	FromMillis = simtime.FromMillis
	// FromSeconds converts seconds to a Duration.
	FromSeconds = simtime.FromSeconds
	// PeriodForHz returns the refresh period of the given rate.
	PeriodForHz = simtime.PeriodForHz
)

// Workload modelling.
type (
	// Profile parameterises a synthetic frame-cost workload (§3's
	// power-law short/long mixture).
	Profile = workload.Profile
	// Trace is a concrete sequence of per-frame costs.
	Trace = workload.Trace
	// Cost is one frame's UI/render-stage demand.
	Cost = workload.Cost
	// Class tags frames with D-VSync applicability (Figure 9).
	Class = workload.Class
)

// Frame classes (§4.2).
const (
	// Deterministic animation frames ride the decoupling-oblivious channel.
	Deterministic = workload.Deterministic
	// Interactive frames decouple through the aware channel with an IPL
	// predictor.
	Interactive = workload.Interactive
	// Realtime frames always take the VSync path.
	Realtime = workload.Realtime
)

// Simulation.
type (
	// Config describes one simulation run.
	Config = sim.Config
	// Result carries everything measured in a run.
	Result = sim.Result
	// Mode selects the rendering architecture.
	Mode = sim.Mode
	// PanelConfig describes the screen model.
	PanelConfig = display.Config
	// Recorder captures a structured event trace of a run.
	Recorder = trace.Recorder
	// Frame is the per-frame record flowing through the pipeline.
	Frame = buffer.Frame
)

// Rendering architectures.
const (
	// VSync is the conventional baseline (Figure 10a).
	VSync = sim.ModeVSync
	// DVSync is the decoupled architecture (Figure 10b).
	DVSync = sim.ModeDVSync
)

// Run executes one simulation to completion. Invalid configurations panic;
// use TryRun when the config comes from external input.
func Run(cfg Config) *Result { return sim.Run(cfg) }

// TryRun executes one simulation, returning configuration errors as values
// instead of panicking. Panics remain only for provable internal invariant
// violations (pipeline ordering, buffer state machine).
func TryRun(cfg Config) (*Result, error) { return sim.TryRun(cfg) }

// ValidateConfig reports what TryRun would reject, without running.
var ValidateConfig = sim.Validate

// NewRecorder returns an empty trace recorder to attach to a Config.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// Flight recording and causal attribution (DESIGN.md §15).
type (
	// TraceSink is the event-sink interface a Config's Recorder field
	// accepts; Recorder and FlightRing both implement it.
	TraceSink = trace.Sink
	// TraceEvent is one structured trace event.
	TraceEvent = trace.Event
	// FlightConfig tunes the flight recorder's ring capacity and trigger
	// thresholds; the zero value selects the documented defaults.
	FlightConfig = flight.Config
	// FlightRing is the fixed-capacity always-on flight recorder: it
	// retains the last events of a run and snapshots them into anomaly
	// dumps when a trigger fires.
	FlightRing = flight.Ring
	// AnomalyDump is one triggered snapshot of the flight ring.
	AnomalyDump = flight.Dump
	// Cause is one link in a cause chain, proximate to root.
	Cause = obs.Cause
	// CauseChain explains one jank / edge-missed / fallback instant.
	CauseChain = obs.CauseChain
)

// Flight-recorder and attribution helpers.
var (
	// NewFlightRecorder returns a flight ring to attach to a Config.
	NewFlightRecorder = flight.New
	// AttributeTrace walks a recorded event stream back to cause chains —
	// the library form of `dvtrace -why`.
	AttributeTrace = obs.Attribute
	// WriteCauseTable renders cause chains as an aligned text table.
	WriteCauseTable = obs.WriteCauseTable
	// WriteEventsJSONL writes events in the schema's JSONL interchange form.
	WriteEventsJSONL = trace.WriteEventsJSONL
	// DumpID names an anomaly dump from the run's config digest, the
	// dump's index and its trigger kind.
	DumpID = flight.DumpID
	// EncodeAnomalyDump / DecodeAnomalyDump seal and verify dumps under a
	// config digest in the flight recorder's digest-pinned envelope.
	EncodeAnomalyDump = flight.EncodeDump
	DecodeAnomalyDump = flight.DecodeDump
	// ConfigDigest fingerprints a configuration for anomaly-dump pinning
	// and run caches.
	ConfigDigest = sim.ConfigDigest
)

// Runner is a reusable run context: the full simulation graph is wired
// once and rewound per run, so back-to-back runs of one scenario skip
// reconstruction and settle at a near-zero steady-state allocation count.
// A reused run is byte-identical to a fresh Run of the same config. Not
// safe for concurrent use — pool one Runner per worker.
type Runner = sim.Runner

// NewRunner validates the config and wires a reusable run context.
// Invalid configurations panic, exactly like Run.
func NewRunner(cfg Config) *Runner { return sim.NewRunner(cfg) }

// Live telemetry (DESIGN.md §10).
type (
	// TelemetryRegistry is a per-run live metrics registry: counters,
	// gauges and histograms updated from simulation hooks and sampled on
	// virtual-time intervals.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time export of a registry —
	// metric values plus the sampled time series.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetrySample is one sampled time-series row.
	TelemetrySample = telemetry.SampleRow
	// TelemetryRow is one sample row in export form; its JSON encoding
	// renders non-finite values as null instead of failing the marshal.
	TelemetryRow = telemetry.RowSnapshot
)

// NewTelemetryRegistry returns an empty registry to attach to a Config's
// Metrics field. Exports (WritePrometheus, WriteJSON, Snapshot) are
// deterministic per seed and identical at any -workers width.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// Compare runs the same workload under both architectures and returns
// (baseline, decoupled). The baseline uses the classic buffer count; the
// decoupled run uses dvsyncBuffers.
func Compare(tr *Trace, panel PanelConfig, vsyncBuffers, dvsyncBuffers int) (*Result, *Result) {
	v := Run(Config{Mode: VSync, Panel: panel, Buffers: vsyncBuffers, Trace: tr})
	d := Run(Config{Mode: DVSync, Panel: panel, Buffers: dvsyncBuffers, Trace: tr})
	return v, d
}

// D-VSync core abstractions (for decoupling-aware integrations).
type (
	// InputPredictor is the IPL plug-in interface (§4.6).
	InputPredictor = core.InputPredictor
	// InputSample is one observed input event.
	InputSample = core.InputSample
	// DTVConfig tunes the Display Time Virtualizer.
	DTVConfig = core.DTVConfig
)

// IPL predictors (§4.6, §6.5).
type (
	// LinearPredictor is the least-squares line fit (the map app's ZDP).
	LinearPredictor = ipl.Linear
	// QuadraticPredictor captures acceleration.
	QuadraticPredictor = ipl.Quadratic
	// LastValuePredictor is the no-prediction ablation baseline.
	LastValuePredictor = ipl.LastValue
	// KalmanPredictor is a constant-velocity Kalman filter, robust to
	// digitizer noise.
	KalmanPredictor = ipl.Kalman
)

// Input synthesis.
type (
	// Swipe is a constant-velocity drag gesture.
	Swipe = input.Swipe
	// Fling is a drag releasing into friction-decelerated scrolling.
	Fling = input.Fling
	// Pinch is a two-finger zoom gesture with tremor.
	Pinch = input.Pinch
	// Digitizer samples gestures at a touch-controller rate.
	Digitizer = input.Digitizer
)

// Animation sampling.
type (
	// Animation binds a motion curve to a time window and value range.
	Animation = anim.Animation
	// Curve maps normalised time to progress.
	Curve = anim.Curve
	// LinearCurve is constant-velocity motion.
	LinearCurve = anim.Linear
	// EaseInOutCurve is the smoothstep ease.
	EaseInOutCurve = anim.EaseInOut
	// SpringCurve is a damped harmonic oscillator.
	SpringCurve = anim.Spring
	// FlingCurve is friction-decelerated scroll progress.
	FlingCurve = anim.Fling
)

// LTPO variable refresh (§5.3).
type (
	// LTPOPolicy decides refresh rate from content velocity.
	LTPOPolicy = ltpo.Policy
	// RateStep is one velocity-threshold rule.
	RateStep = ltpo.RateStep
)

// NewLTPOPolicy builds a step policy; DefaultLTPOPolicy mirrors §5.3's
// 60/90/120 Hz example.
var (
	NewLTPOPolicy     = ltpo.NewThresholdPolicy
	DefaultLTPOPolicy = ltpo.DefaultUIPolicy
)

// Metrics.
type (
	// Summary is a distribution summary (mean/std/percentiles).
	Summary = metrics.Summary
	// JankReport is the FDPS/FD% report of a run.
	JankReport = metrics.JankReport
	// StutterConfig tunes the perceived-stutter detector (§6.2).
	StutterConfig = metrics.StutterConfig
	// PowerModel converts work accounting into energy/instruction proxies.
	PowerModel = metrics.PowerModel
)

// Metric helpers.
var (
	// CountStutters applies the Table 2 stutter detector.
	CountStutters = metrics.CountStutters
	// DefaultStutterConfig mirrors the industrial UX criteria.
	DefaultStutterConfig = metrics.DefaultStutterConfig
	// DefaultPowerModel returns the §6.7-calibrated coefficients.
	DefaultPowerModel = metrics.DefaultPowerModel
)

// Evaluation catalog (Table 1, Figures 11–14, Table 2, …).
type (
	// Device is one evaluation platform (Table 1).
	Device = scenarios.Device
	// App is one of the 25 Figure 11 applications.
	App = scenarios.App
	// UseCase is one of the 75 Appendix A OS use cases.
	UseCase = scenarios.UseCase
	// Game is one of the 15 Figure 14 games.
	Game = scenarios.Game
	// UXTask is one of the Table 2 composite tasks.
	UXTask = scenarios.UXTask
)

// Catalog accessors.
var (
	// Pixel5, Mate40Pro and Mate60Pro are the Table 1 devices.
	Pixel5    = scenarios.Pixel5
	Mate40Pro = scenarios.Mate40Pro
	Mate60Pro = scenarios.Mate60Pro
	// Devices lists Table 1 in order.
	Devices = scenarios.Devices
	// Apps lists Figure 11's applications.
	Apps = scenarios.Apps
	// UseCases lists Appendix A.
	UseCases = scenarios.UseCases
	// Games lists Figure 14's games.
	Games = scenarios.Games
	// UXTasks lists Table 2's tasks.
	UXTasks = scenarios.UXTasks
)

// Fault injection and graceful degradation (DESIGN.md §7).
type (
	// FaultConfig is a seeded deterministic fault-injection plan.
	FaultConfig = fault.Config
	// FaultEpisode is one bounded fault window with a severity.
	FaultEpisode = fault.Episode
	// FaultCounters tallies every injected fault of a run.
	FaultCounters = fault.Counters
	// HealthConfig tunes the supervised-fallback watchdog thresholds.
	HealthConfig = health.Config
	// HealthReason says which watchdog tripped a fallback.
	HealthReason = health.Reason
	// FallbackRecord is one supervised architecture switch (§4.5).
	FallbackRecord = sim.FallbackRecord
)

// Fault-injection helpers.
var (
	// FaultScenario builds a single-class fault plan from a normalised
	// severity in [0, 1].
	FaultScenario = fault.Scenario
	// FaultClasses lists every injectable fault class.
	FaultClasses = fault.Classes
)

// Appendix A testing framework (internal/autotest).
type (
	// UseCaseScript is a use case compiled to human operations.
	UseCaseScript = autotest.Script
	// UseCaseReport is one case's measured outcome (five-run mean).
	UseCaseReport = autotest.Report
)

// Testing-framework entry points.
var (
	// CompileUseCase derives the operation script of an Appendix A case.
	CompileUseCase = autotest.Compile
	// RunUseCase executes one case under an architecture (five runs).
	RunUseCase = autotest.RunCase
	// RunCensus executes the full 75-case benchmark.
	RunCensus = autotest.RunCensus
)

// Fleet census engine (DESIGN.md §14): batch device-population runs with
// per-cohort telemetry aggregation and content-addressed cell memoisation.
type (
	// FleetSpec declares one census population.
	FleetSpec = fleet.Spec
	// FleetCohort is one population segment of a spec.
	FleetCohort = fleet.Cohort
	// FleetEngine runs censuses and owns the fleet-wide result cache.
	FleetEngine = fleet.Engine
	// FleetResult is one census outcome.
	FleetResult = fleet.Result
	// FleetCohortResult is one cohort's aggregate.
	FleetCohortResult = fleet.CohortResult
)

// Fleet helpers.
var (
	// NewFleetEngine returns an empty census engine.
	NewFleetEngine = fleet.NewEngine
	// FleetDemoSpec is the canonical demo census (dvbench -exp fleet).
	FleetDemoSpec = fleet.DemoSpec
)

// Experiments exposes the harness that regenerates every table and figure;
// each entry writes its reproduction to the supplied writer.
type Experiment = exp.Experiment

// Experiments returns the full experiment registry in presentation order.
func Experiments() []Experiment { return exp.Registry() }

// FindExperiment looks an experiment up by its short ID (e.g. "fig11").
func FindExperiment(id string) (Experiment, bool) { return exp.Find(id) }
