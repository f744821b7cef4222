package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"dvsync/internal/buffer"
	"dvsync/internal/core"
	"dvsync/internal/display"
	"dvsync/internal/event"
	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/ltpo"
	"dvsync/internal/pipeline"
	"dvsync/internal/signal"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// ErrRunFinished reports a snapshot requested at or past the end of the
// run: the simulation completed (or drained) before the requested instant,
// so there is nothing left to resume.
var ErrRunFinished = errors.New("sim: run already finished")

// PresentState is one latched frame whose FramePresent event has not been
// recorded yet: a present fence, held as plain driver state.
type PresentState struct {
	At        simtime.Time `json:"at"`
	Frame     int          `json:"frame"`
	Decoupled bool         `json:"decoupled,omitempty"`
}

// DriverState is the simulation driver's serialisable state: the trace
// cursor, the §4.5 switch positions, and the present fences not yet
// recorded.
type DriverState struct {
	NextIdx        int            `json:"next_idx"`
	Started        bool           `json:"started,omitempty"`
	Ticks          int            `json:"ticks,omitempty"`
	AppSwitch      bool           `json:"app_switch,omitempty"`
	FallbackActive bool           `json:"fallback_active,omitempty"`
	PresentPending []PresentState `json:"present_pending,omitempty"`
}

// TelemetryState is the live-metrics layer's serialisable state: the
// registry contents and the trailing FDPS window. The next sampling
// boundary follows from the registry's last row.
type TelemetryState struct {
	Registry telemetry.RegistryState `json:"registry"`
	Window   []simtime.Time          `json:"window,omitempty"`
}

// AccumState is the run-so-far result accumulation: everything Run gathers
// incrementally that cannot be re-derived from the restored components.
type AccumState struct {
	PresentedSeqs []int            `json:"presented,omitempty"`
	Janks         []JankRecord     `json:"janks,omitempty"`
	Skipped       int              `json:"skipped,omitempty"`
	FirstLatch    simtime.Time     `json:"first_latch"`
	LastLatch     simtime.Time     `json:"last_latch"`
	LatencyMs     []float64        `json:"latency_ms,omitempty"`
	Fallbacks     []FallbackRecord `json:"fallbacks,omitempty"`
	Decoupled     int              `json:"decoupled,omitempty"`
	VSyncPath     int              `json:"vsync_path,omitempty"`
	StaleDropped  int              `json:"stale_dropped,omitempty"`
}

// State is the complete serialisable simulation state at a quiescent
// virtual-time boundary: every event dispatched up to At, every component's
// internal state, every scheduled event with its exact agenda position
// (time, priority, tie-break sequence, id), and the run-so-far
// accumulators. Resuming from it reproduces the remainder of the run
// byte-for-byte — same dispatch order, same RNG draws, same trace,
// telemetry and Perfetto output.
type State struct {
	At       simtime.Time      `json:"at"`
	Engine   event.State       `json:"engine"`
	Panel    display.State     `json:"panel"`
	Signal   signal.State      `json:"signal"`
	Queue    buffer.QueueState `json:"queue"`
	Producer pipeline.State    `json:"producer"`

	DTV        *core.DTVState        `json:"dtv,omitempty"`
	FPE        *core.FPEState        `json:"fpe,omitempty"`
	Controller *core.ControllerState `json:"controller,omitempty"`
	LTPO       *ltpo.State           `json:"ltpo,omitempty"`
	Fault      *fault.State          `json:"fault,omitempty"`
	Health     *health.State         `json:"health,omitempty"`
	Telemetry  *TelemetryState       `json:"telemetry,omitempty"`

	Trace  []trace.Event `json:"trace,omitempty"`
	Flight *flight.State `json:"flight,omitempty"`
	Driver DriverState   `json:"driver"`
	Accum  AccumState    `json:"accum"`
}

// cfgDigestView mirrors Config's deterministic fields for digesting.
// Closures and interfaces cannot be serialised, so they contribute
// presence booleans: a snapshot taken with a predictor (or recorder,
// registry, LTPO policy…) attached schedules different events than one
// without, so resuming under different presence must be refused.
type cfgDigestView struct {
	Mode               Mode
	PanelName          string
	RefreshHz          int
	Width, Height      int
	JitterStdDev       simtime.Duration
	JitterSeed         int64
	PeriodSkewPPM      float64
	Buffers            int
	PreRenderLimit     int
	TraceName          string
	TraceCosts         []workload.Cost
	AppOffset          simtime.Duration
	DTV                core.DTVConfig
	HasPredictor       bool
	PerFrameOverhead   simtime.Duration
	HasContentSample   bool
	DisableDVSync      bool
	HasRuntimeSwitch   bool
	DropStaleBuffers   bool
	VSyncPipelineDepth int
	MaxSimTime         simtime.Duration
	HasRecorder        bool
	// FlightRecorder carries the flight ring's trigger parameters when the
	// attached sink is a flight recorder, empty otherwise. omitempty keeps
	// every pre-flight digest byte-identical.
	FlightRecorder   string `json:",omitempty"`
	HasMetrics       bool
	MetricsInterval  simtime.Duration
	HasLTPO          bool
	Faults           *fault.Config
	FPEOverloadAfter int
	FPERecoverAfter  int
	EnableFallback   bool
	Health           health.Config
}

// digestView builds the view ConfigDigest hashes from the normalized
// config, trace costs included.
func digestView(cfg Config) cfgDigestView {
	cfg = normalized(cfg)
	v := cfgDigestView{
		Mode:               cfg.Mode,
		PanelName:          cfg.Panel.Name,
		RefreshHz:          cfg.Panel.RefreshHz,
		Width:              cfg.Panel.Width,
		Height:             cfg.Panel.Height,
		JitterStdDev:       cfg.Panel.JitterStdDev,
		JitterSeed:         cfg.Panel.JitterSeed,
		PeriodSkewPPM:      cfg.Panel.PeriodSkewPPM,
		Buffers:            cfg.Buffers,
		PreRenderLimit:     cfg.PreRenderLimit,
		AppOffset:          cfg.AppOffset,
		DTV:                cfg.DTV,
		HasPredictor:       cfg.Predictor != nil,
		PerFrameOverhead:   cfg.PerFrameOverhead,
		HasContentSample:   cfg.ContentSample != nil,
		DisableDVSync:      cfg.DisableDVSync,
		HasRuntimeSwitch:   cfg.RuntimeSwitch != nil,
		DropStaleBuffers:   cfg.DropStaleBuffers,
		VSyncPipelineDepth: cfg.VSyncPipelineDepth,
		MaxSimTime:         cfg.MaxSimTime,
		HasRecorder:        cfg.Recorder != nil,
		HasMetrics:         cfg.Metrics != nil,
		MetricsInterval:    cfg.MetricsInterval,
		HasLTPO:            cfg.LTPOPolicy != nil,
		Faults:             cfg.Faults,
		FPEOverloadAfter:   cfg.FPEOverloadAfter,
		FPERecoverAfter:    cfg.FPERecoverAfter,
		EnableFallback:     cfg.EnableFallback,
		Health:             cfg.Health,
	}
	if r, ok := cfg.Recorder.(*flight.Ring); ok {
		fc := r.Config()
		v.FlightRecorder = fmt.Sprintf("cap=%d burst=%d window=%v cooldown=%v max=%d",
			fc.Capacity, fc.JankBurst, fc.JankWindow, fc.Cooldown, fc.MaxDumps)
	}
	if cfg.Trace != nil {
		v.TraceName = cfg.Trace.Name
		v.TraceCosts = cfg.Trace.Costs
	}
	return v
}

// traceCostsKey is the JSON key the streamed trace costs follow.
var traceCostsKey = []byte(`"TraceCosts":`)

// ConfigDigest fingerprints a configuration for checkpoint pinning: two
// configs with the same digest wire identical simulations (up to the
// behaviour of attached closures, which contribute presence only — see
// cfgDigestView). The digest is computed over the normalized config, so a
// digest taken before New and one taken after agree.
//
// The digest is SHA-256 over json.Marshal of the view, but the trace
// costs, nearly all of those bytes, never pass through encoding/json:
// the view is marshalled with TraceCosts nil, and the costs are encoded
// as encoding/json encodes them and hashed where that null stands, so
// the hashed stream is byte for byte the marshalled full view.
func ConfigDigest(cfg Config) string {
	v := digestView(cfg)
	costs := v.TraceCosts
	v.TraceCosts = nil
	b, err := json.Marshal(&v)
	if err != nil {
		panic(fmt.Sprintf("sim: config digest: %v", err))
	}
	h := sha256.New()
	if costs == nil {
		h.Write(b)
	} else {
		// encoding/json escapes every '"' inside a string (PanelName,
		// TraceName, FlightRecorder), so the key cannot occur inside one
		// and its first occurrence is the field.
		i := bytes.Index(b, traceCostsKey) + len(traceCostsKey)
		h.Write(b[:i])
		// The costs go through a fixed buffer, so a digest allocates the
		// same at any trace length. It stays on the stack because h's
		// Write is devirtualized here; handing it to an io.Writer would
		// move it to the heap.
		var buf [4096]byte
		c := append(buf[:0], '[')
		for k, x := range costs {
			if len(c) > len(buf)-maxCostJSON {
				h.Write(c)
				c = c[:0]
			}
			if k > 0 {
				c = append(c, ',')
			}
			c = appendCost(c, x)
		}
		h.Write(append(c, ']'))
		h.Write(b[i+len("null"):])
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// maxCostJSON bounds one encoded cost with its separator and the
// closing bracket: ,{"UI":…,"RS":…,"Class":…}] with three 20-byte int64s.
const maxCostJSON = len(`,{"UI":,"RS":,"Class":}]`) + 3*20

// appendCost appends c as encoding/json encodes a workload.Cost: every
// field a base-10 int64.
func appendCost(b []byte, c workload.Cost) []byte {
	b = append(b, `{"UI":`...)
	b = strconv.AppendInt(b, int64(c.UI), 10)
	b = append(b, `,"RS":`...)
	b = strconv.AppendInt(b, int64(c.RS), 10)
	b = append(b, `,"Class":`...)
	b = strconv.AppendInt(b, int64(c.Class), 10)
	return append(b, '}')
}

// Snapshot runs the simulation to the quiescent boundary at the given
// virtual instant and captures its complete state. The instant must not be
// in the past of the engine clock; if the run completes (or its watchdog
// trips) before the instant, Snapshot reports that instead of capturing a
// useless end-state. The system remains runnable: call Run (or Snapshot
// again, later) to continue.
func (s *System) Snapshot(at simtime.Time) (*State, error) {
	if !s.prepared {
		s.prepare()
	}
	if at < s.engine.Now() {
		return nil, fmt.Errorf("sim: snapshot at %v is in the past of %v", at, s.engine.Now())
	}
	s.runTo(at)
	if err := s.engine.Err(); err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	if s.engine.Stopped() || s.engine.Pending() == 0 {
		return nil, ErrRunFinished
	}
	return s.captureState()
}

// RunCheckpointed executes the run like Run, pausing every virtual-time
// interval to capture a snapshot and hand it to fn (which typically seals
// it into a checkpoint.Store). An fn error aborts the run. Intervals that
// land past the run's end are skipped — the final stretch runs
// uninterrupted, so the result is identical to a plain Run.
func (s *System) RunCheckpointed(every simtime.Duration, fn func(*State) error) (*Result, error) {
	if every <= 0 {
		return nil, fmt.Errorf("sim: non-positive checkpoint interval %v", every)
	}
	if fn == nil {
		return nil, fmt.Errorf("sim: RunCheckpointed without a snapshot sink")
	}
	if !s.prepared {
		s.prepare()
	}
	end := s.horizonEnd()
	for {
		next := s.engine.Now().Add(every)
		if next >= end {
			s.runTo(end)
			break
		}
		s.runTo(next)
		if s.engine.Err() != nil || s.engine.Stopped() {
			break
		}
		st, err := s.captureState()
		if err != nil {
			return nil, err
		}
		if err := fn(st); err != nil {
			return nil, err
		}
	}
	return s.finish(), nil
}

// captureState serialises the full system at the current (quiescent)
// engine instant. It cross-checks completeness: every scheduled event in
// the engine agenda must be owned by exactly one captured surface, so a
// subsystem growing a new event source without a checkpoint surface fails
// loudly here instead of silently diverging on resume.
func (s *System) captureState() (*State, error) {
	st := &State{At: s.engine.Now(), Engine: s.engine.State()}
	var err error
	if st.Panel, err = s.panel.State(); err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	if st.Signal, err = s.dist.State(); err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	st.Queue = s.queue.State()
	if st.Producer, err = s.producer.State(); err != nil {
		return nil, fmt.Errorf("sim: snapshot: %w", err)
	}
	if s.dtv != nil {
		v := s.dtv.State()
		st.DTV = &v
	}
	if s.fpe != nil {
		v := s.fpe.State()
		st.FPE = &v
	}
	if s.ctl != nil {
		v := s.ctl.State()
		st.Controller = &v
	}
	if s.ltpo != nil {
		v := s.ltpo.State()
		st.LTPO = &v
	}
	if s.inj != nil {
		v := s.inj.State()
		st.Fault = &v
	}
	if s.monitor != nil {
		v := s.monitor.State()
		st.Health = &v
	}
	if s.tel != nil {
		st.Telemetry = &TelemetryState{Registry: s.tel.reg.State(), Window: s.tel.window.State()}
	}
	if s.cfg.Recorder != nil {
		if r, ok := s.cfg.Recorder.(*flight.Ring); ok {
			st.Flight = r.CaptureState()
		} else {
			st.Trace = append([]trace.Event(nil), s.cfg.Recorder.Events()...)
		}
	}
	st.Driver = DriverState{
		NextIdx:        s.nextIdx,
		Started:        s.started,
		Ticks:          s.ticks,
		AppSwitch:      s.appSwitch,
		FallbackActive: s.fallbackActive,
		PresentPending: append([]PresentState(nil), s.presentPending...),
	}
	a := AccumState{
		Skipped:      s.res.Skipped,
		FirstLatch:   s.res.FirstLatch,
		LastLatch:    s.res.LastLatch,
		Decoupled:    s.res.DecoupledFrames,
		VSyncPath:    s.res.VSyncPathFrames,
		StaleDropped: s.res.StaleDropped,
	}
	for _, f := range s.res.Presented {
		a.PresentedSeqs = append(a.PresentedSeqs, f.Seq)
	}
	if len(s.res.Janks) > 0 {
		a.Janks = append([]JankRecord(nil), s.res.Janks...)
	}
	if len(s.res.LatencyMs) > 0 {
		a.LatencyMs = append([]float64(nil), s.res.LatencyMs...)
	}
	if len(s.res.Fallbacks) > 0 {
		a.Fallbacks = append([]FallbackRecord(nil), s.res.Fallbacks...)
	}
	st.Accum = a

	captured := len(st.Producer.UIPending) + len(st.Producer.RSPending) + len(st.Signal.Pending)
	if st.Panel.Pending != nil {
		captured++
	}
	if captured != s.engine.Pending() {
		return nil, fmt.Errorf("sim: snapshot captured %d scheduled events, engine holds %d", captured, s.engine.Pending())
	}
	return st, nil
}

// Resume wires a fresh simulation from cfg and loads a snapshot into it.
// cfg must be the configuration that produced the snapshot (callers
// crossing a process boundary verify via ConfigDigest before decoding);
// structural mismatches are reported as errors, never panics. The returned
// system continues from the snapshot instant: Run completes the run with
// results byte-identical to an uninterrupted one.
func Resume(cfg Config, st *State) (*System, error) {
	if st == nil {
		return nil, fmt.Errorf("sim: resume from nil state")
	}
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	s := New(cfg)
	if err := s.restore(st); err != nil {
		return nil, err
	}
	return s, nil
}

// presence reports a component-presence mismatch between the wired system
// and the snapshot as a typed error.
func presence(name string, wired, snapshotted bool) error {
	switch {
	case wired && !snapshotted:
		return fmt.Errorf("sim: resume: config wires %s but the snapshot has no %s state", name, name)
	case !wired && snapshotted:
		return fmt.Errorf("sim: resume: snapshot carries %s state but the config does not wire it", name)
	}
	return nil
}

// restore loads a snapshot into a freshly wired system. Order matters: the
// engine's counters first (so re-inserted events validate against them),
// then the producer (which owns the frame arena every other reference
// resolves through), then the queue, then the remaining components.
func (s *System) restore(st *State) error {
	if err := s.engine.Restore(st.Engine); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if err := s.producer.Restore(st.Producer); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if err := s.queue.Restore(st.Queue, s.producer.FrameBySeq); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if err := s.producer.ValidateRestored(); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if err := s.panel.Restore(st.Panel); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	if err := s.dist.Restore(st.Signal); err != nil {
		return fmt.Errorf("sim: resume: %w", err)
	}
	for _, c := range []struct {
		name        string
		wired, snap bool
	}{
		{"DTV", s.dtv != nil, st.DTV != nil},
		{"FPE", s.fpe != nil, st.FPE != nil},
		{"controller", s.ctl != nil, st.Controller != nil},
		{"LTPO", s.ltpo != nil, st.LTPO != nil},
		{"fault injector", s.inj != nil, st.Fault != nil},
		{"health monitor", s.monitor != nil, st.Health != nil},
		{"telemetry", s.tel != nil, st.Telemetry != nil},
		{"trace recorder", s.cfg.Recorder != nil,
			st.Trace != nil || st.Flight != nil || len(st.Driver.PresentPending) > 0},
	} {
		if err := presence(c.name, c.wired, c.snap); err != nil {
			return err
		}
	}
	if s.dtv != nil {
		if err := s.dtv.Restore(*st.DTV); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.fpe != nil {
		if err := s.fpe.Restore(*st.FPE); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.ctl != nil {
		if err := s.ctl.Restore(*st.Controller); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.ltpo != nil {
		if err := s.ltpo.Restore(*st.LTPO); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.inj != nil {
		if err := s.inj.Restore(*st.Fault); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.monitor != nil {
		if err := s.monitor.Restore(*st.Health); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	if s.tel != nil {
		tc := st.Telemetry
		if err := s.tel.reg.RestoreState(tc.Registry); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
		if err := s.tel.window.Restore(tc.Window); err != nil {
			return fmt.Errorf("sim: resume: %w", err)
		}
	}
	n := s.cfg.Trace.Len()
	var lastAt simtime.Time // newest restored trace event
	if s.cfg.Recorder != nil {
		if r, ok := s.cfg.Recorder.(*flight.Ring); ok {
			if st.Flight == nil {
				return fmt.Errorf("sim: resume: config wires a flight recorder but the snapshot carries plain trace state")
			}
			if err := r.RestoreState(st.Flight); err != nil {
				return fmt.Errorf("sim: resume: %w", err)
			}
		} else {
			if st.Flight != nil {
				return fmt.Errorf("sim: resume: snapshot carries flight-recorder state but the config wires a plain recorder")
			}
			if err := s.cfg.Recorder.Restore(st.Trace); err != nil {
				return fmt.Errorf("sim: resume: %w", err)
			}
			s.cfg.Recorder.Reserve(6*n + 64)
		}
		// Rebuild the marker cursor from the restored stream: every mark at
		// or before the newest restored event has already been emitted (for
		// a flight ring the newest retained event is still the newest
		// recorded one, so the rule holds there too).
		if events := s.cfg.Recorder.Events(); len(events) > 0 {
			lastAt = events[len(events)-1].At
		}
		s.nextMark = 0
		for s.nextMark < len(s.marks) && s.marks[s.nextMark].at <= lastAt {
			s.nextMark++
		}
		if s.dtv != nil {
			s.lastReAnchors = s.dtv.ReAnchors()
		}
	}
	s.nextIdx = st.Driver.NextIdx
	if s.nextIdx < 0 || s.nextIdx > n {
		return fmt.Errorf("sim: resume: trace cursor %d out of range", s.nextIdx)
	}
	s.started = st.Driver.Started
	s.ticks = st.Driver.Ticks
	s.appSwitch = st.Driver.AppSwitch
	s.fallbackActive = st.Driver.FallbackActive
	s.applyEnabled()
	for _, p := range st.Driver.PresentPending {
		if p.At < lastAt {
			return fmt.Errorf("sim: resume: present fence of frame %d at %v precedes the restored trace", p.Frame, p.At)
		}
	}
	s.presentPending = append(s.presentPending, st.Driver.PresentPending...)
	s.res.Presented = make([]*buffer.Frame, 0, n)
	for _, seq := range st.Accum.PresentedSeqs {
		f := s.producer.FrameBySeq(seq)
		if f == nil {
			return fmt.Errorf("sim: resume: presented list references unknown frame %d", seq)
		}
		s.res.Presented = append(s.res.Presented, f)
	}
	s.res.Janks = append([]JankRecord(nil), st.Accum.Janks...)
	s.res.Skipped = st.Accum.Skipped
	s.res.FirstLatch = st.Accum.FirstLatch
	s.res.LastLatch = st.Accum.LastLatch
	s.res.LatencyMs = make([]float64, 0, n)
	s.res.LatencyMs = append(s.res.LatencyMs, st.Accum.LatencyMs...)
	s.res.Fallbacks = append([]FallbackRecord(nil), st.Accum.Fallbacks...)
	s.res.DecoupledFrames = st.Accum.Decoupled
	s.res.VSyncPathFrames = st.Accum.VSyncPath
	s.res.StaleDropped = st.Accum.StaleDropped

	expected := len(st.Producer.UIPending) + len(st.Producer.RSPending) + len(st.Signal.Pending)
	if st.Panel.Pending != nil {
		expected++
	}
	if got := s.engine.Pending(); got != expected {
		return fmt.Errorf("sim: resume: restored %d scheduled events, snapshot describes %d", got, expected)
	}
	s.prepared = true
	return nil
}
