// Package sim binds the panel, buffer queue, signal distributor, rendering
// pipeline and scheduler (VSync or D-VSync) into a runnable full-system
// simulation, and collects the per-frame records every experiment is
// computed from.
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dvsync/internal/buffer"
	"dvsync/internal/core"
	"dvsync/internal/display"
	"dvsync/internal/event"
	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/ltpo"
	"dvsync/internal/metrics"
	"dvsync/internal/pipeline"
	"dvsync/internal/signal"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// Mode selects the rendering architecture.
type Mode int

// Rendering architectures.
const (
	// ModeVSync is the conventional architecture: frame execution is
	// triggered by software VSync signals, pacing production 1:1 with the
	// display (Figure 10a).
	ModeVSync Mode = iota
	// ModeDVSync is the decoupled architecture: the FPE pre-executes
	// frames ahead of display VSyncs under the pre-render limit
	// (Figure 10b).
	ModeDVSync
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeVSync {
		return "VSync"
	}
	return "D-VSync"
}

// DefaultDVSyncOverhead is the per-frame FPE+DTV bookkeeping cost measured
// in §6.4 (102.6 µs on a little core).
const DefaultDVSyncOverhead = 102600 * simtime.Nanosecond

// MaxBuffers bounds Config.Buffers. Every experiment uses at most five; the
// bound stops an untrusted buffer count (a dvserve query, a fleet spec)
// from sizing a queue that exhausts memory before the run starts.
const MaxBuffers = 64

// Config describes one simulation run.
type Config struct {
	// Mode selects VSync or D-VSync.
	Mode Mode
	// Panel configures the screen.
	Panel display.Config
	// Buffers is the total buffer-pool size (front + back).
	Buffers int
	// PreRenderLimit caps frames rendered ahead in D-VSync mode. Zero
	// defaults to Buffers−1: every back buffer usable for pre-rendering,
	// matching §5.1's OpenHarmony configuration (4 buffers ⇒ at most 3
	// back buffers for pre-rendering).
	PreRenderLimit int
	// Trace is the frame workload.
	Trace *workload.Trace
	// AppOffset delays VSync-app after the hardware edge.
	AppOffset simtime.Duration
	// DTV tunes the Display Time Virtualizer.
	DTV core.DTVConfig
	// Predictor optionally registers an IPL predictor, enabling the
	// decoupling-aware channel for Interactive frames.
	Predictor core.InputPredictor
	// PerFrameOverhead is the bookkeeping cost charged per started frame
	// in D-VSync mode; negative disables, zero uses the §6.4 default.
	PerFrameOverhead simtime.Duration
	// ContentSample, when set, is invoked at each frame start so the
	// scenario can record what the frame rendered (animation progress or
	// predicted input state). now is the execution time.
	ContentSample func(f *buffer.Frame, now simtime.Time)
	// DisableDVSync starts the runtime controller switched off (frames
	// fall back to the VSync path even in D-VSync mode).
	DisableDVSync bool
	// RuntimeSwitch, when set, drives the §4.5 runtime switch per frame:
	// it is consulted as trigger opportunities arise and toggles the
	// controller, the way the map app activates D-VSync only while zooming
	// (§6.5). It overrides DisableDVSync.
	RuntimeSwitch func(now simtime.Time) bool
	// DropStaleBuffers switches the consumer to SurfaceFlinger's
	// opportunistic stale-dropping: at each edge the newest queued buffer
	// is latched and older ones are discarded. It trims post-jank latency
	// on the VSync path at the cost of wasted rendering — and it destroys
	// D-VSync's accumulated cushion, which is why D-VSync pins the FIFO
	// discipline instead (§4.4: the screen HAL consumes the queue in FIFO
	// order).
	DropStaleBuffers bool
	// VSyncPipelineDepth caps frames in flight (queued + rendering) on the
	// classic VSync path. Tick-paced production keeps at most one buffer
	// queued while the next frame renders (Figure 2's pipeline), so the
	// depth is 2 regardless of pool size: extra back buffers ease parallel
	// rendering of consecutive frames (§2) but are never used to
	// accumulate frames — accumulation is precisely the capability
	// D-VSync's explicit frame timing management adds (§3.4, §4.1).
	// Zero defaults to 2.
	VSyncPipelineDepth int
	// MaxSimTime bounds the run as a watchdog; zero derives a generous
	// bound from the trace length.
	MaxSimTime simtime.Duration
	// Recorder, when set, captures a structured event trace of the run
	// (hardware edges, frame lifecycle, janks, rate changes). Any
	// trace.Sink works: *trace.Recorder keeps everything; *flight.Ring
	// retains a bounded window and snapshots anomaly dumps on trigger
	// (DESIGN.md §15). With a sink attached the run also emits the
	// schema-v3 marker events (fault-onset/fault-end/dtv-reanchor).
	Recorder trace.Sink
	// Metrics, when set, attaches a live telemetry registry: the run
	// registers its instruments at wiring time, updates them from hooks,
	// and samples them into the registry's time series on MetricsInterval
	// boundaries of the virtual clock (DESIGN.md §10). One registry serves
	// one run. Nil keeps the hot path metric-free.
	Metrics *telemetry.Registry
	// MetricsInterval is the virtual-time sampling interval; zero defaults
	// to the initial panel refresh period (the interval stays fixed even
	// when LTPO retargets the rate mid-run). Requires Metrics.
	MetricsInterval simtime.Duration
	// LTPOPolicy, together with LTPOVelocity, enables variable refresh:
	// at every edge the coordinator observes the content velocity and
	// retargets the rate under the §5.3 drain rule.
	LTPOPolicy ltpo.Policy
	// LTPOVelocity reports the content velocity (e.g. scroll px/s) at an
	// instant. Required when LTPOPolicy is set.
	LTPOVelocity func(simtime.Time) float64
	// Faults optionally injects seeded deterministic faults (stall episodes,
	// VSync jitter and misses, clock drift, allocation failures) through the
	// hooks each subsystem exposes. Nil or an empty config runs fault-free.
	Faults *fault.Config
	// FPEOverloadAfter enables FPE accumulation backoff after this many
	// consecutive over-period frames (zero keeps the seed behaviour).
	FPEOverloadAfter int
	// FPERecoverAfter ends the backoff after this many consecutive
	// under-period frames; zero defaults to FPEOverloadAfter.
	FPERecoverAfter int
	// EnableFallback supervises a D-VSync run with a health monitor that
	// drives the §4.5 runtime switch back to the VSync channel when the
	// system degrades, and back once it recovers (with hysteresis).
	EnableFallback bool
	// Health tunes the fallback monitor; required when EnableFallback is
	// set (MaxFDPS must be positive).
	Health health.Config
}

// FallbackRecord is one supervised runtime-switch transition.
type FallbackRecord struct {
	// At is the transition instant.
	At simtime.Time
	// To is the channel switched to (ModeVSync on a trip, ModeDVSync on a
	// recovery).
	To Mode
	// Reason is the health check behind the transition (ReasonNone on
	// recoveries).
	Reason health.Reason
}

// JankRecord is one repeated-frame edge.
type JankRecord struct {
	// At is the edge timestamp.
	At simtime.Time
	// EdgeSeq is the panel edge index.
	EdgeSeq uint64
	// KeyFrame marks janks attributable to a heavily loaded frame.
	KeyFrame bool
}

// Result carries everything measured in one run.
type Result struct {
	// Mode is the architecture simulated.
	Mode Mode
	// Period is the nominal refresh period.
	Period simtime.Duration
	// Presented lists latched frames in latch order.
	Presented []*buffer.Frame
	// Janks lists repeated-frame edges inside the display window.
	Janks []JankRecord
	// Skipped counts frame indices never rendered (VSync falls behind and
	// the time-based animation jumps over them).
	Skipped int
	// FirstLatch/LastLatch bound the active display window.
	FirstLatch, LastLatch simtime.Time
	// ExecutedWork is the total pipeline stage time spent.
	ExecutedWork simtime.Duration
	// OverheadWork is the total FPE/DTV bookkeeping charged.
	OverheadWork simtime.Duration
	// Stuffed and Direct split presented frames per Figure 6.
	Stuffed, Direct int
	// LatencyMs holds per-presented-frame rendering latency (ms).
	LatencyMs []float64
	// DTVMeanAbsErrMs / DTVMaxAbsErrMs are D-Timestamp prediction errors.
	DTVMeanAbsErrMs, DTVMaxAbsErrMs float64
	// FPEStage statistics (D-VSync only).
	FPEStarts, FPEPreStarts, FPESyncBlocks int
	// DecoupledFrames / VSyncPathFrames split frames by channel.
	DecoupledFrames, VSyncPathFrames int
	// MemoryBytes is the buffer-pool footprint.
	MemoryBytes int64
	// StaleDropped counts rendered frames discarded by the stale-dropping
	// consumer (zero under the FIFO discipline).
	StaleDropped int
	// Completed is false if the watchdog expired first.
	Completed bool
	// EdgesInWindow counts refresh edges in (FirstLatch, LastLatch].
	EdgesInWindow int
	// Fallbacks lists supervised runtime-switch transitions in time order.
	Fallbacks []FallbackRecord
	// FaultCounters aggregates injected-fault activity (zero when no
	// injector is configured).
	FaultCounters fault.Counters
	// MissedEdges counts panel refreshes skipped by injected faults.
	MissedEdges int
	// AllocFailed counts dequeues refused by injected allocation faults.
	AllocFailed int
	// DTVReAnchors / DTVMissedEdges are the DTV hardening counters.
	DTVReAnchors, DTVMissedEdges int
	// FPEBackoffs / FPEStartFailures are the FPE hardening counters.
	FPEBackoffs, FPEStartFailures int
	// WatchdogTripped carries the engine watchdog error of a stalled run
	// (empty on healthy runs).
	WatchdogTripped string
}

// Jank converts the run into the FDPS report.
func (r *Result) Jank() metrics.JankReport {
	return metrics.JankReport{
		Janks:         len(r.Janks),
		Edges:         r.EdgesInWindow,
		WindowSeconds: r.LastLatch.Sub(r.FirstLatch).Seconds(),
	}
}

// FDPS returns frame drops per second.
func (r *Result) FDPS() float64 { return r.Jank().FDPS() }

// LatencySummary summarises per-frame rendering latency in ms.
func (r *Result) LatencySummary() metrics.Summary {
	return metrics.Summarize(r.LatencyMs)
}

// JankEvents adapts the jank list for the stutter detector.
func (r *Result) JankEvents() []metrics.JankEvent {
	out := make([]metrics.JankEvent, len(r.Janks))
	for i, j := range r.Janks {
		out[i] = metrics.JankEvent{EdgeSeq: j.EdgeSeq, KeyFrame: j.KeyFrame}
	}
	return out
}

// WorkMs returns executed + overhead work in milliseconds.
func (r *Result) WorkMs() float64 {
	return (r.ExecutedWork + r.OverheadWork).Milliseconds()
}

// WindowMs returns the display window in milliseconds.
func (r *Result) WindowMs() float64 { return r.LastLatch.Sub(r.FirstLatch).Milliseconds() }

// System is a wired simulation ready to run.
type System struct {
	cfg      Config
	engine   *event.Engine
	panel    *display.Panel
	dist     *signal.Distributor
	queue    *buffer.Queue
	producer *pipeline.Producer
	dtv      *core.DTV
	fpe      *core.FPE
	ctl      *core.Controller
	ltpo     *ltpo.Coordinator
	inj      *fault.Injector
	monitor  *health.Monitor
	tel      *telemetryState

	res Result

	// driver state
	nextIdx        int  // next trace index to start
	started        bool // stream has begun (first VSync-app seen)
	ticks          int  // VSync-app ticks since stream start
	appSwitch      bool // the application's §4.5 switch position
	fallbackActive bool // the supervisor is holding the system on VSync

	// marks holds the precomputed schema-v3 marker events (fault episode
	// boundaries), sorted by time with details formatted at wiring time;
	// record() lazily interleaves them into the event stream so the hot
	// path never formats a string. nextMark is the first unemitted mark:
	// after any record(ev), nextMark indexes past every mark with
	// at <= ev.At.
	marks    []traceMark
	nextMark int
	// lastReAnchors mirrors dtv.ReAnchors() so the recorder path can emit
	// a DTVReAnchor marker the instant the counter moves.
	lastReAnchors int

	// presentPending holds latched frames whose FramePresent event has not
	// been recorded yet, in latch order. record() emits each one before the
	// first event of a later instant, earliest fence first: an LTPO
	// retarget can make PresentAt non-monotone across consecutive latches.
	presentPending []presentFence
	// lastAt is the instant of the run's latest recorded event, present
	// fences aside, kept with or without a sink for dumpIDs' tail rule.
	// Each engine callback that records stores it once, before its first
	// record site; every other site records at the same instant.
	lastAt simtime.Time
}

// presentFence is one latched frame whose FramePresent event has not been
// recorded yet.
type presentFence struct {
	at        simtime.Time
	frame     int
	decoupled bool
}

// traceMark is one precomputed schema-v3 marker event awaiting emission.
type traceMark struct {
	at     simtime.Time
	kind   trace.EventKind
	detail string
}

// Validate reports configuration errors: everything a caller could get
// wrong by construction, checked up front so library users get an error
// value instead of a panic from deep inside the wiring.
func Validate(cfg Config) error {
	switch {
	case cfg.Trace == nil || cfg.Trace.Len() == 0:
		return fmt.Errorf("sim: empty trace")
	case cfg.Buffers < 2:
		return fmt.Errorf("sim: %d buffers cannot double-buffer", cfg.Buffers)
	case cfg.Buffers > MaxBuffers:
		return fmt.Errorf("sim: %d buffers exceed the bound of %d", cfg.Buffers, MaxBuffers)
	case cfg.Panel.RefreshHz <= 0:
		return fmt.Errorf("sim: invalid panel refresh rate %d", cfg.Panel.RefreshHz)
	case cfg.AppOffset < 0:
		return fmt.Errorf("sim: negative VSync-app offset %v", cfg.AppOffset)
	case cfg.MaxSimTime < 0:
		return fmt.Errorf("sim: negative MaxSimTime %v", cfg.MaxSimTime)
	case cfg.PreRenderLimit < 0:
		return fmt.Errorf("sim: negative pre-render limit %d", cfg.PreRenderLimit)
	case cfg.VSyncPipelineDepth < 0:
		return fmt.Errorf("sim: negative VSync pipeline depth %d", cfg.VSyncPipelineDepth)
	case cfg.LTPOPolicy != nil && cfg.LTPOVelocity == nil:
		return fmt.Errorf("sim: LTPOPolicy requires LTPOVelocity")
	case cfg.FPEOverloadAfter < 0:
		return fmt.Errorf("sim: negative FPE overload threshold %d", cfg.FPEOverloadAfter)
	case cfg.FPERecoverAfter < 0:
		return fmt.Errorf("sim: negative FPE recovery threshold %d", cfg.FPERecoverAfter)
	case cfg.MetricsInterval < 0:
		return fmt.Errorf("sim: negative metrics interval %v", cfg.MetricsInterval)
	case cfg.MetricsInterval > 0 && cfg.Metrics == nil:
		return fmt.Errorf("sim: MetricsInterval set without a Metrics registry")
	case !finite(cfg.Panel.PeriodSkewPPM):
		return fmt.Errorf("sim: non-finite panel period skew %v", cfg.Panel.PeriodSkewPPM)
	case !finite(cfg.DTV.PeriodSmoothing) || !finite(cfg.DTV.RateChangeTolerance) || !finite(cfg.DTV.MaxAbsErrMs):
		return fmt.Errorf("sim: non-finite DTV parameter in %+v", cfg.DTV)
	case !finite(cfg.Health.MaxFDPS) || !finite(cfg.Health.MaxCalibErrMs):
		// Checked with fallback off too: ConfigDigest reads Health always.
		return fmt.Errorf("sim: non-finite health threshold in %+v", cfg.Health)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if cfg.EnableFallback {
		if cfg.Mode != ModeDVSync {
			return fmt.Errorf("sim: fallback supervision requires D-VSync mode")
		}
		if err := cfg.Health.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf: every float
// ConfigDigest reads must be, since JSON has no encoding for the others.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// New wires a simulation from the config. Invalid configurations panic;
// use TryRun (or Validate first) to get an error value instead.
func New(cfg Config) *System {
	if err := Validate(cfg); err != nil {
		panic(err)
	}
	cfg = normalized(cfg)

	s := &System{cfg: cfg, engine: event.NewEngine()}
	s.presentPending = make([]presentFence, 0, 8)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		s.inj = fault.NewInjector(*cfg.Faults)
		if cfg.Recorder != nil {
			s.marks = episodeMarks(cfg.Faults)
		}
	}
	panelCfg := cfg.Panel
	if s.inj != nil {
		panelCfg.EdgeDelay = s.inj.EdgeDelay
		panelCfg.EdgeMiss = s.inj.EdgeMiss
	}
	s.panel = display.NewPanel(s.engine, panelCfg)
	s.dist = signal.NewDistributor(s.engine, cfg.AppOffset)
	s.queue = buffer.NewQueue(buffer.Config{
		Buffers: cfg.Buffers,
		Width:   cfg.Panel.Width,
		Height:  cfg.Panel.Height,
	})
	s.producer = pipeline.NewProducer(s.engine, s.queue, cfg.Trace)
	if s.inj != nil {
		s.dist.SetDelay(s.inj.SignalDelay)
		s.queue.SetAllocFault(func() bool { return s.inj.AllocFails(s.engine.Now()) })
		s.producer.CostScale = s.inj.CostScale
		s.panel.OnMissedEdge(s.onMissedEdge)
	}

	period := simtime.PeriodForHz(cfg.Panel.RefreshHz)
	s.res.Mode = cfg.Mode
	s.res.Period = period
	s.res.MemoryBytes = s.queue.MemoryBytes()

	if cfg.Mode == ModeDVSync {
		s.dtv = core.NewDTV(cfg.DTV, period)
		s.ctl = core.NewController(cfg.PreRenderLimit, s.dtv)
		if cfg.Predictor != nil {
			s.ctl.RegisterPredictor(cfg.Predictor)
		}
		s.appSwitch = !cfg.DisableDVSync
		if cfg.EnableFallback {
			s.monitor = health.NewMonitor(cfg.Health)
		}
		s.applyEnabled()
		s.fpe = core.NewFPE(core.FPEConfig{
			MaxAhead:      cfg.PreRenderLimit,
			OverloadAfter: cfg.FPEOverloadAfter,
			RecoverAfter:  cfg.FPERecoverAfter,
		}, (*fpeView)(s))
		s.producer.PerFrameOverhead = cfg.PerFrameOverhead
		// DTV observes edges before the consumer latches at the same edge.
		s.panel.OnEdge(func(now simtime.Time, seq uint64, p simtime.Duration) {
			s.dtv.ObserveEdge(now, seq, p)
		})
	}

	s.panel.OnEdge(s.onEdge)
	s.panel.OnEdge(s.dist.OnHWEdge)
	s.dist.Subscribe(s.onAppTick)

	s.producer.OnUIDone = func(now simtime.Time, f *buffer.Frame) {
		s.lastAt = now
		if cfg.Recorder != nil {
			s.record(trace.Event{At: now, Kind: trace.FrameUIDone, Frame: f.Seq,
				Decoupled: f.Decoupled})
		}
		if s.fpe != nil {
			s.fpe.Pump(now)
		}
	}
	if cfg.LTPOPolicy != nil {
		s.ltpo = ltpo.NewCoordinator(cfg.LTPOPolicy, s.panel, (*pendingRates)(s))
	}
	s.producer.OnQueued = func(now simtime.Time, f *buffer.Frame) {
		if s.monitor != nil {
			s.monitor.ObserveProgress(now)
		}
		s.lastAt = now
		if cfg.Recorder != nil {
			s.record(trace.Event{At: now, Kind: trace.FrameQueued, Frame: f.Seq,
				Decoupled: f.Decoupled})
		}
	}
	if cfg.Metrics != nil {
		interval := cfg.MetricsInterval
		if interval <= 0 {
			interval = period
		}
		s.tel = newTelemetryState(cfg.Metrics, interval, cfg.Panel.RefreshHz, s.monitor != nil)
		s.queue.SetDepthObserver(func(depth int) {
			d := float64(depth)
			s.tel.queueDepth.Set(d)
			s.tel.depthDist.Observe(d)
		})
		s.panel.OnRateChange(func(hz int) { s.tel.refreshHz.Set(float64(hz)) })
	}
	return s
}

// episodeMarks precomputes the schema-v3 fault marker events for a run:
// one FaultOnset/FaultEnd pair per configured episode, details formatted
// here (wiring time) so the hot path only copies strings. Sorted by time;
// at equal instants episode ends sort before onsets so a window closes
// before the next opens.
func episodeMarks(fc *fault.Config) []traceMark {
	refs := fc.Episodes()
	marks := make([]traceMark, 0, 2*len(refs))
	for _, ref := range refs {
		marks = append(marks,
			traceMark{at: ref.Episode.Start, kind: trace.FaultOnset,
				detail: fmt.Sprintf("class=%s episode=%d severity=%g", ref.Class, ref.Index, ref.Episode.Severity)},
			traceMark{at: ref.Episode.End, kind: trace.FaultEnd,
				detail: fmt.Sprintf("class=%s episode=%d", ref.Class, ref.Index)})
	}
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].kind == trace.FaultEnd && marks[j].kind == trace.FaultOnset
	})
	return marks
}

// record emits one trace event through the configured sink, first
// interleaving every present fence due before its instant and every
// precomputed marker due at or before it, in time order. A fence at T is
// thus recorded after every event of instant T, and a marker at T before
// a fence at T. The caller must hold cfg.Recorder != nil. After any
// record(ev), nextMark indexes past every mark with at <= ev.At.
//
//dvlint:hotpath wraps every recorded simulation event
func (s *System) record(ev trace.Event) {
	s.emitPresents(ev.At)
	s.emitMarks(ev.At)
	s.cfg.Recorder.Add(ev)
}

// emitMarks records every precomputed marker at or before upTo.
//
//dvlint:hotpath runs inside every record call
func (s *System) emitMarks(upTo simtime.Time) {
	for s.nextMark < len(s.marks) {
		m := &s.marks[s.nextMark]
		if m.at > upTo {
			return
		}
		s.cfg.Recorder.Add(trace.Event{At: m.at, Kind: m.kind, Frame: -1, Detail: m.detail})
		s.nextMark++
	}
}

// emitPresents records the FramePresent event of every pending fence
// before the given instant, earliest first and in latch order at equal
// instants, each preceded by the markers due at or before it.
//
//dvlint:hotpath runs inside every record call
func (s *System) emitPresents(before simtime.Time) {
	for len(s.presentPending) > 0 {
		i := 0
		for j := 1; j < len(s.presentPending); j++ {
			if s.presentPending[j].at < s.presentPending[i].at {
				i = j
			}
		}
		p := s.presentPending[i]
		if p.at >= before {
			return
		}
		copy(s.presentPending[i:], s.presentPending[i+1:])
		s.presentPending = s.presentPending[:len(s.presentPending)-1]
		s.emitMarks(p.at)
		s.cfg.Recorder.Add(trace.Event{At: p.at, Kind: trace.FramePresent, Frame: p.frame,
			Decoupled: p.decoupled})
	}
}

// noteReAnchors emits a DTVReAnchor marker when the DTV's re-anchor
// counter moved since the last check. The caller must hold
// cfg.Recorder != nil and s.dtv != nil.
//
//dvlint:hotpath checked at every latch on the recording path
func (s *System) noteReAnchors(now simtime.Time) {
	if ra := s.dtv.ReAnchors(); ra > s.lastReAnchors {
		s.lastReAnchors = ra
		s.record(trace.Event{At: now, Kind: trace.DTVReAnchor, Frame: -1})
	}
}

// dumpIDs names, under digest, the anomaly dumps a default flight ring
// (flight.New(flight.Config{})) on the run just finished would have
// taken, whether or not one was attached. It feeds flight.Triggers, the
// rules the ring applies, the symptom events the ring would have
// recorded, synthesised from the Result and merged in the order record()
// emits them:
//
//   - a fault onset at T (marker events exist only with faults enabled)
//     is emitted before any event at T, and only once an event at or
//     after T is recorded: after the last recorded event, present
//     fences included, it never reaches a ring. finish flushes every
//     fence, and LTPO makes fences non-monotone, so the tail is their
//     maximum, not the last one's;
//   - a jank before a fallback at the same edge, since supervise runs
//     after the jank; only a fallback to VSync counts, by its detail;
//   - the watchdog last, at the engine's clock, after the flush.
//
// It reads the finished run's Result, so it is defined once Run has
// returned.
func (s *System) dumpIDs(digest string) []string {
	var onsets []simtime.Time
	if s.inj != nil {
		last := s.lastAt
		for _, f := range s.res.Presented {
			last = max(last, f.PresentAt)
		}
		for _, ref := range s.cfg.Faults.Episodes() {
			if ref.Episode.Start <= last {
				onsets = append(onsets, ref.Episode.Start)
			}
		}
		slices.Sort(onsets)
	}
	trig := flight.NewTriggers(flight.Config{})
	var ids []string
	observe := func(kind trace.EventKind, at simtime.Time, detail string) {
		if k, ok := trig.Observe(kind, at, detail); ok {
			ids = append(ids, flight.DumpID(digest, len(ids), k))
		}
	}
	janks, falls := s.res.Janks, s.res.Fallbacks
	for len(onsets) > 0 || len(janks) > 0 || len(falls) > 0 {
		// The earliest symptom next; at one instant an onset, then a
		// jank, then a fallback.
		switch {
		case len(onsets) > 0 && (len(janks) == 0 || onsets[0] <= janks[0].At) &&
			(len(falls) == 0 || onsets[0] <= falls[0].At):
			observe(trace.FaultOnset, onsets[0], "")
			onsets = onsets[1:]
		case len(janks) > 0 && (len(falls) == 0 || janks[0].At <= falls[0].At):
			observe(trace.Jank, janks[0].At, "")
			janks = janks[1:]
		default:
			observe(trace.Fallback, falls[0].At, fallbackDetail[falls[0].To][falls[0].Reason])
			falls = falls[1:]
		}
	}
	if s.res.WatchdogTripped != "" && trig.Watchdog(s.engine.Now()) {
		ids = append(ids, flight.DumpID(digest, len(ids), flight.TriggerWatchdog))
	}
	return ids
}

// watchdogTripper is the optional sink hook the flight recorder exposes:
// finish() fires it when the engine watchdog aborted the run.
type watchdogTripper interface {
	TripWatchdog(at simtime.Time, detail string)
}

// fallbackDetail precomputes the supervise() trace annotation for every
// (channel, reason) pair, so the per-transition path indexes a table
// instead of formatting on the hot path.
var fallbackDetail = func() (d [2][4]string) {
	for m := ModeVSync; m <= ModeDVSync; m++ {
		for r := health.ReasonNone; r <= health.ReasonStall; r++ {
			d[m][r] = fmt.Sprintf("to=%s reason=%s", m, r)
		}
	}
	return
}()

// applyEnabled resolves the §4.5 switch position: the application's wish
// gated by the fallback supervisor.
func (s *System) applyEnabled() {
	if s.ctl != nil {
		s.ctl.SetEnabled(s.appSwitch && !s.fallbackActive)
	}
}

// supervise evaluates the health monitor at a display edge and drives the
// runtime switch on trip/recovery transitions.
//
//dvlint:hotpath evaluated at every display edge
func (s *System) supervise(now simtime.Time) {
	if s.monitor == nil {
		return
	}
	busy := len(s.producer.Inflight()) > 0
	tripped := s.monitor.Evaluate(now, busy)
	if tripped == s.fallbackActive {
		return
	}
	s.fallbackActive = tripped
	s.applyEnabled()
	to := ModeDVSync
	if tripped {
		to = ModeVSync
	}
	reason := s.monitor.LastReason()
	s.res.Fallbacks = append(s.res.Fallbacks, FallbackRecord{At: now, To: to, Reason: reason})
	if t := s.tel; t != nil {
		if tripped {
			t.fallbacks.Inc()
			t.fallbackState.Set(1)
		} else {
			t.fallbackState.Set(0)
		}
	}
	if s.cfg.Recorder != nil {
		s.record(trace.Event{At: now, Kind: trace.Fallback, Frame: -1,
			Detail: fallbackDetail[to][reason]})
	}
}

// onMissedEdge accounts a refresh the panel skipped under an injected fault:
// the screen repeats the old frame, which is a jank whenever an update was
// due, and the supervisor still evaluates (skipped refreshes are exactly
// when degradation must be noticed).
//
//dvlint:hotpath runs at every skipped refresh under edge faults
func (s *System) onMissedEdge(now simtime.Time, seq uint64, period simtime.Duration) {
	s.lastAt = now
	if s.cfg.Recorder != nil {
		s.record(trace.Event{At: now, Kind: trace.EdgeMissed, Frame: -1, EdgeSeq: seq})
	}
	if t := s.tel; t != nil {
		// Refresh the FDPS gauge before this edge's jank enters the
		// window, mirroring the obs sampling point at real edges.
		t.missedEdges.Inc()
		t.fdps.Set(t.window.Rate(now))
	}
	s.repeatEdge(now, seq, period)
	s.supervise(now)
}

// repeatEdge accounts an edge at which the screen shows its previous frame
// again, because nothing was ready to latch or the panel skipped the
// refresh. It is a jank whenever an update was due: a frame is on screen
// and the stream is not done. The jank is a key frame when the oldest
// in-flight frame's UI + RS exceeds the period.
//
//dvlint:hotpath runs at every edge that latches nothing
func (s *System) repeatEdge(now simtime.Time, seq uint64, period simtime.Duration) {
	if s.queue.Front() == nil || s.streamDone() {
		return
	}
	key := false
	if inflight := s.producer.OldestInflight(); inflight != nil {
		key = inflight.UICost+inflight.RSCost > period
	}
	s.res.Janks = append(s.res.Janks, JankRecord{At: now, EdgeSeq: seq, KeyFrame: key})
	if s.monitor != nil {
		s.monitor.ObserveJank(now)
	}
	if t := s.tel; t != nil {
		t.observeJank(now)
	}
	if s.cfg.Recorder != nil {
		s.record(trace.Event{At: now, Kind: trace.Jank, Frame: -1, EdgeSeq: seq})
	}
}

// pendingRates adapts the queue and in-flight frames to ltpo.QueueView:
// the rate bounds of every rendered-but-undisplayed buffer.
type pendingRates System

// PendingRates implements ltpo.QueueView.
func (v *pendingRates) PendingRates() []int {
	var out []int
	for i := 0; ; i++ {
		b := v.queue.PeekQueued(i)
		if b == nil {
			break
		}
		out = append(out, b.Frame.RateHz)
	}
	for _, f := range v.producer.Inflight() {
		out = append(out, f.RateHz)
	}
	return out
}

// fpeView adapts System to core.PipelineView.
type fpeView System

// Ahead implements core.PipelineView.
func (v *fpeView) Ahead() int { return v.producer.Ahead() }

// CanDequeue implements core.PipelineView.
func (v *fpeView) CanDequeue() bool { return v.queue.CanDequeue() }

// UIFree implements core.PipelineView.
func (v *fpeView) UIFree(now simtime.Time) bool { return v.producer.UIFree(now) }

// HasPendingRequest implements core.PipelineView: the next frame exists,
// the stream has begun, and the frame is routed to the decoupled channel.
func (v *fpeView) HasPendingRequest() bool {
	s := (*System)(v)
	if !s.started || s.nextIdx >= s.cfg.Trace.Len() {
		return false
	}
	return s.ctl.Decoupled(s.cfg.Trace.Costs[s.nextIdx].Class)
}

// StartFrame implements core.PipelineView.
func (v *fpeView) StartFrame(now simtime.Time) bool {
	s := (*System)(v)
	ahead := s.producer.Ahead()
	dts := s.dtv.DTimestamp(now, ahead)
	return s.startFrame(now, pipeline.StartRequest{
		Index:       s.nextIdx,
		ContentTime: dts,
		DTimestamp:  dts,
		Decoupled:   true,
		RateHz:      s.frameRate(),
	})
}

// startFrame starts one frame, reporting false when the queue refused the
// buffer (a transient allocation fault); the request stays pending and the
// driver retries at its next trigger.
//
//dvlint:hotpath runs once per produced frame
func (s *System) startFrame(now simtime.Time, req pipeline.StartRequest) bool {
	f := s.producer.TryStart(now, req)
	if f == nil {
		return false
	}
	if s.fpe != nil {
		s.fpe.ObserveFrameCost(f.UICost+f.RSCost, s.res.Period)
	}
	s.lastAt = now
	if s.cfg.Recorder != nil {
		s.record(trace.Event{At: now, Kind: trace.FrameStart, Frame: f.Seq,
			Decoupled: f.Decoupled, DTimestamp: f.DTimestamp})
	}
	if s.cfg.ContentSample != nil {
		s.cfg.ContentSample(f, now)
	}
	if t := s.tel; t != nil {
		t.framesStarted.Inc()
	}
	s.nextIdx = req.Index + 1
	if req.Decoupled {
		s.res.DecoupledFrames++
	} else {
		s.res.VSyncPathFrames++
	}
	return true
}

// onAppTick is the VSync-app software signal handler: the classic trigger
// path, also used by D-VSync for non-decoupled frames.
//
//dvlint:hotpath runs at every VSync-app tick
func (s *System) onAppTick(ev signal.Event) {
	n := s.cfg.Trace.Len()
	if !s.started {
		s.started = true
		s.ticks = 0
	} else {
		s.ticks++
	}
	if s.fpe != nil {
		if s.cfg.RuntimeSwitch != nil {
			s.appSwitch = s.cfg.RuntimeSwitch(ev.At)
			s.applyEnabled()
		}
		// D-VSync: decoupled frames are pumped; if the next frame is
		// routed to the VSync path, trigger it on this tick.
		s.fpe.Pump(ev.At)
		if s.fallbackActive {
			// Supervised fallback (§4.5): the app is back on classic VSync
			// triggering, where the animation is time-based — under
			// sustained overload missed slots are skipped exactly like the
			// VSync baseline, instead of falling ever further behind.
			s.vsyncTick(ev.At, n)
			return
		}
		if s.nextIdx < n && !s.ctl.Decoupled(s.cfg.Trace.Costs[s.nextIdx].Class) &&
			s.producer.UIFree(ev.At) && s.queue.CanDequeue() &&
			s.producer.Ahead() < s.cfg.VSyncPipelineDepth {
			s.startFrame(ev.At, pipeline.StartRequest{
				Index:       s.nextIdx,
				ContentTime: ev.At,
				RateHz:      s.frameRate(),
			})
		}
		return
	}
	s.vsyncTick(ev.At, n)
}

// vsyncTick is the VSync-baseline production step: the animation is
// time-based; the content slot for this tick is s.ticks. If production fell
// behind, the indices in between are skipped (the animation jumps), exactly
// like a real app missing Choreographer callbacks.
//
//dvlint:hotpath runs at every VSync-app tick on the classic path
func (s *System) vsyncTick(at simtime.Time, n int) {
	target := s.ticks
	if target >= n {
		target = n - 1
	}
	if target < s.nextIdx {
		return // already produced this slot (or decoupled production ran ahead)
	}
	if !s.producer.UIFree(at) || !s.queue.CanDequeue() ||
		s.producer.Ahead() >= s.cfg.VSyncPipelineDepth {
		return // blocked: this slot's content will be skipped
	}
	skipped := target - s.nextIdx
	if !s.startFrame(at, pipeline.StartRequest{
		Index:       target,
		ContentTime: at,
		RateHz:      s.frameRate(),
	}) {
		return // allocation fault: retry at the next tick
	}
	s.res.Skipped += skipped
}

// frameRate is the rate new frames are produced for: the LTPO render rate
// when variable refresh is active, else the panel rate.
func (s *System) frameRate() int {
	if s.ltpo != nil {
		return s.ltpo.RenderHz()
	}
	return s.panel.RefreshHz()
}

// streamDone reports whether all content has been produced and displayed:
// every trace index has been started (indices VSync skipped never will be)
// and nothing is in flight or queued.
func (s *System) streamDone() bool {
	return s.nextIdx >= s.cfg.Trace.Len() && s.producer.Ahead() == 0
}

// onEdge is the display consumer: latch one queued buffer per hardware
// edge, or account a jank when updates are due but none is ready.
//
//dvlint:hotpath runs at every hardware VSync edge
func (s *System) onEdge(now simtime.Time, seq uint64, period simtime.Duration) {
	s.lastAt = now
	if s.cfg.Recorder != nil {
		s.record(trace.Event{At: now, Kind: trace.HWVSync, Frame: -1, EdgeSeq: seq,
			Hz: simtime.HzForPeriod(period)})
	}
	if t := s.tel; t != nil {
		// The FDPS gauge is refreshed before this edge's jank (if any)
		// enters the window — the sampling point obs reconstructs from the
		// HWVSync event, which precedes the Jank event at the same instant.
		t.edges.Inc()
		t.fdps.Set(t.window.Rate(now))
	}
	var b *buffer.Buffer
	if s.cfg.DropStaleBuffers {
		var dropped int
		b, dropped = s.queue.LatchNewest(now, period)
		s.res.StaleDropped += dropped
		if t := s.tel; t != nil && dropped > 0 {
			t.staleDropped.Add(float64(dropped))
		}
	} else {
		b = s.queue.Latch(now, period)
	}
	if b != nil {
		f := b.Frame
		f.PresentAt = now.Add(period)
		if len(s.res.Presented) == 0 {
			s.res.FirstLatch = now
		}
		s.res.LastLatch = now
		s.res.Presented = append(s.res.Presented, f)
		s.recordLatency(f)
		if t := s.tel; t != nil {
			t.framesPresented.Inc()
		}
		if s.cfg.Recorder != nil {
			s.record(trace.Event{At: now, Kind: trace.FrameLatched, Frame: f.Seq,
				Decoupled: f.Decoupled, EdgeSeq: seq})
			s.presentPending = append(s.presentPending,
				presentFence{at: f.PresentAt, frame: f.Seq, decoupled: f.Decoupled})
		}
		if s.fpe != nil {
			if f.Decoupled {
				s.dtv.RecordPresent(f.DTimestamp, f.PresentAt)
				if s.cfg.Recorder != nil {
					s.noteReAnchors(now)
				}
				if s.monitor != nil || s.tel != nil {
					errAbs := f.PresentAt.Sub(f.DTimestamp)
					if errAbs < 0 {
						errAbs = -errAbs
					}
					errMs := errAbs.Milliseconds()
					if s.monitor != nil {
						s.monitor.ObserveCalibError(now, errMs)
					}
					if t := s.tel; t != nil {
						t.calibErr.Observe(errMs)
					}
				}
			}
			// The latch freed the previous front buffer: a slot opened.
			s.fpe.Pump(now)
		}
	} else {
		s.repeatEdge(now, seq, period)
	}
	s.supervise(now)

	if s.ltpo != nil {
		prev := s.panel.RefreshHz()
		s.ltpo.Observe(now, s.cfg.LTPOVelocity(now))
		if cur := s.panel.RefreshHz(); cur != prev && s.cfg.Recorder != nil {
			s.record(trace.Event{At: now, Kind: trace.RateChange, Frame: -1,
				EdgeSeq: seq, Hz: cur})
		}
	}

	if s.queue.Front() != nil && s.streamDone() && s.queue.QueuedCount() == 0 {
		// The panel's next edge stays scheduled and never fires: the run
		// ends here, and the next one starts from engine.Reset.
		s.engine.Stop()
	}
}

// recordLatency computes the rendering-latency metric of §6.3.
//
// A VSync-path frame's content is sampled at its trigger tick, so its
// latency is present − trigger: 2 periods for direct composition, 3 when
// stuffed, more after janks. A decoupled frame renders content *for* its
// D-Timestamp, so waiting in the queue does not age it; its effective
// latency is the just-in-time pipeline depth (2 periods) plus the DTV
// prediction error — the mechanism by which §6.3's 31 % reduction arises.
//
//dvlint:hotpath runs once per presented frame
func (s *System) recordLatency(f *buffer.Frame) {
	var lat simtime.Duration
	if f.Decoupled {
		err := f.PresentAt.Sub(f.DTimestamp)
		if err < 0 {
			err = -err
		}
		lat = 2*s.res.Period + err
	} else {
		lat = f.PresentAt.Sub(f.ContentTime)
	}
	latMs := lat.Milliseconds()
	s.res.LatencyMs = append(s.res.LatencyMs, latMs)
	if t := s.tel; t != nil {
		t.latency.Observe(latMs)
	}
}

// Engine exposes the event engine (examples drive extra events through it).
func (s *System) Engine() *event.Engine { return s.engine }

// Controller exposes the runtime controller in D-VSync mode (nil otherwise).
func (s *System) Controller() *core.Controller { return s.ctl }

// Queue exposes the buffer queue for inspection.
func (s *System) Queue() *buffer.Queue { return s.queue }

// normalized applies New's config defaulting, hoisted out so a
// configuration digest computed before construction matches the wired
// system (dumps and caches are keyed by the normalized config).
func normalized(cfg Config) Config {
	if cfg.PreRenderLimit == 0 {
		cfg.PreRenderLimit = cfg.Buffers - 1
	}
	if cfg.PreRenderLimit < 1 {
		cfg.PreRenderLimit = 1
	}
	if cfg.PerFrameOverhead == 0 {
		cfg.PerFrameOverhead = DefaultDVSyncOverhead
	}
	if cfg.PerFrameOverhead < 0 {
		cfg.PerFrameOverhead = 0
	}
	if cfg.VSyncPipelineDepth == 0 {
		cfg.VSyncPipelineDepth = 2
	}
	return cfg
}

// reset rewinds every component of the wired graph to its as-constructed
// condition so the System can replay another run — same scenario, possibly
// a new trace — without rebuilding the object graph. It is the Runner's
// per-run hot path: a reset run must behave byte-identically to
// New(cfg).Run() on the same inputs.
//
// Order matters in three places: the injector reseeds before the panel
// resets (the panel's fault hooks stay wired, so a half-reset injector
// would desynchronise its RNG streams), the LTPO coordinator resets after
// the panel (it re-reads the configured base rate), and the telemetry
// binding resets after the supervisor state is rebuilt (its gauges are
// re-primed from the same values the constructor used).
//
//dvlint:hotpath runs once per reused run
func (s *System) reset(tr *workload.Trace) {
	s.engine.Reset()
	if s.inj != nil {
		s.inj.Reset()
	}
	s.panel.Reset()
	s.queue.Reset()
	s.cfg.Trace = tr
	s.producer.Reset(tr)
	if s.cfg.Mode == ModeDVSync {
		s.dtv.Reset(s.res.Period)
		s.ctl.Reset(s.cfg.PreRenderLimit)
		s.appSwitch = !s.cfg.DisableDVSync
		if s.monitor != nil {
			s.monitor.Reset()
		}
		s.fallbackActive = false
		s.applyEnabled()
		s.fpe.Reset()
	}
	if s.ltpo != nil {
		s.ltpo.Reset()
	}
	if s.tel != nil {
		s.tel.reset(s.cfg.Panel.RefreshHz)
	}
	if s.cfg.Recorder != nil {
		// A fresh run starts with an empty recorder; so does a reused one.
		s.cfg.Recorder.Reset()
	}
	s.nextMark = 0
	s.lastReAnchors = 0
	s.lastAt = 0

	// Re-prime the result exactly as New does, handing the previous run's
	// slice capacity back to prepare for reuse.
	s.res = Result{
		Mode:        s.cfg.Mode,
		Period:      s.res.Period,
		MemoryBytes: s.queue.MemoryBytes(),
		Presented:   s.res.Presented[:0],
		LatencyMs:   s.res.LatencyMs[:0],
		Janks:       s.res.Janks[:0],
		Fallbacks:   s.res.Fallbacks[:0],
	}

	s.nextIdx = 0
	s.started = false
	s.ticks = 0
	s.presentPending = s.presentPending[:0]
}

// prepare runs the once-per-run setup before the engine starts:
// size the result and trace buffers from the frame count up front (at most
// one presented frame and latency sample per trace entry, and roughly six
// trace records per frame — start, ui-done, queued, vsync, latched,
// present — saving the append doubling churn on the hot path), reserve the
// telemetry row ring, and start the panel. On the Runner's reuse path the
// buffers usually still hold enough capacity from the previous run, so
// nothing here allocates.
func (s *System) prepare() {
	n := s.cfg.Trace.Len()
	if cap(s.res.Presented) < n {
		s.res.Presented = make([]*buffer.Frame, 0, n)
	}
	if cap(s.res.LatencyMs) < n {
		s.res.LatencyMs = make([]float64, 0, n)
	}
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Reserve(6*n + 64)
	}
	if s.tel != nil {
		// One row per sampling interval over the expected run, with slack
		// for fault-stretched tails. The estimate only sizes the ring:
		// Sample still grows past it if a run overshoots, so row content
		// never depends on this number.
		run := simtime.Duration(n+64) * s.res.Period * 2
		s.tel.reg.Reserve(int(run/s.tel.interval) + 8)
	}
	s.panel.Start(0)
}

// horizonEnd is the virtual-time bound the engine runs to: the configured
// watchdog, or a generous bound derived from the trace length.
func (s *System) horizonEnd() simtime.Time {
	horizon := s.cfg.MaxSimTime
	if horizon <= 0 {
		horizon = simtime.Duration(s.cfg.Trace.Len()+64)*s.res.Period*8 + simtime.Second
	}
	return simtime.Time(0).Add(horizon)
}

// Run executes the simulation to completion (or watchdog) and returns the
// collected result. A System runs once; a Runner rewinds it between runs.
func (s *System) Run() *Result {
	s.prepare()
	s.runTo(s.horizonEnd())
	return s.finish()
}

// finish closes the run once the engine has gone quiet: final telemetry
// row, the present fences still pending, and the counters harvested into
// the result.
func (s *System) finish() *Result {
	if s.tel != nil {
		// Close the series with a run-end row so the final counter state is
		// observable.
		now := s.engine.Now()
		if at, ok := s.tel.reg.LastSampleAt(); !ok || now > at {
			s.sampleTelemetry(now)
		}
	}
	if s.cfg.Recorder != nil {
		// Every latched frame presents, including those latched just before
		// the run ended.
		s.emitPresents(simtime.Never)
	}
	s.res.Completed = s.streamDone()

	st := s.queue.Stats()
	s.res.Stuffed, s.res.Direct = st.Stuffed, st.Direct
	s.res.ExecutedWork = s.producer.ExecutedWork()
	s.res.OverheadWork = s.producer.OverheadWork()
	if s.dtv != nil {
		s.res.DTVMeanAbsErrMs = s.dtv.MeanAbsErrorMs()
		s.res.DTVMaxAbsErrMs = s.dtv.MaxAbsErrorMs()
	}
	if s.fpe != nil {
		s.res.FPEStarts = s.fpe.Starts()
		s.res.FPEPreStarts = s.fpe.PreStarts()
		s.res.FPESyncBlocks = s.fpe.SyncBlocks()
		s.res.FPEBackoffs = s.fpe.Backoffs()
		s.res.FPEStartFailures = s.fpe.StartFailures()
	}
	if s.dtv != nil {
		s.res.DTVReAnchors = s.dtv.ReAnchors()
		s.res.DTVMissedEdges = s.dtv.MissedEdges()
	}
	if s.inj != nil {
		s.res.FaultCounters = s.inj.Counters()
	}
	s.res.MissedEdges = int(s.panel.Missed())
	s.res.AllocFailed = st.AllocFailed
	if err := s.engine.Err(); err != nil {
		s.res.WatchdogTripped = err.Error()
		if w, ok := s.cfg.Recorder.(watchdogTripper); ok {
			w.TripWatchdog(s.engine.Now(), s.res.WatchdogTripped)
		}
	}
	if s.res.LastLatch > s.res.FirstLatch {
		s.res.EdgesInWindow = len(s.res.Presented) - 1 + len(s.res.Janks)
	}
	return &s.res
}

// Run is the convenience one-shot entry point. Invalid configurations
// panic; TryRun returns an error instead.
func Run(cfg Config) *Result { return New(cfg).Run() }

// TryRun executes one simulation, reporting configuration errors as values
// — the entry point for library integrations that cannot afford a panic on
// user-supplied configs.
func TryRun(cfg Config) (*Result, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	return New(cfg).Run(), nil
}
