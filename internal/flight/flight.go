// Package flight is the always-on flight recorder (DESIGN.md §15): a
// fixed-capacity ring that implements trace.Sink, retains the last N
// events of a run at zero steady-state allocations, and — on a
// deterministic trigger (health-watchdog trip, §4.5 fallback, jank burst,
// fault-episode onset) — snapshots the retained window into a versioned,
// digest-pinned anomaly dump.
//
// Everything is a function of virtual time and the event stream: the same
// run produces the same dumps byte-for-byte at any worker width, from a
// fresh or reused Runner, and across a checkpoint/resume cut (trigger
// bookkeeping snapshots into sim.State as sorted slices, never maps).
package flight

import (
	"fmt"
	"strings"

	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

// Defaults for Config's zero values.
const (
	// DefaultCapacity is the retained-event window size.
	DefaultCapacity = 512
	// DefaultJankBurst is how many janks inside DefaultJankWindow trip the
	// jank-burst trigger.
	DefaultJankBurst = 3
	// DefaultJankWindow is the jank-burst sliding window.
	DefaultJankWindow = 250 * simtime.Millisecond
	// DefaultCooldown is the per-trigger-kind virtual-time refractory
	// period between dumps.
	DefaultCooldown = 500 * simtime.Millisecond
	// DefaultMaxDumps bounds dumps per run.
	DefaultMaxDumps = 16
)

// TriggerKind names what tripped a dump.
type TriggerKind string

// Trigger kinds.
const (
	// TriggerWatchdog is an engine health-watchdog trip.
	TriggerWatchdog TriggerKind = "watchdog"
	// TriggerFallback is a §4.5 D-VSync→VSync supervisor fallback.
	TriggerFallback TriggerKind = "fallback"
	// TriggerJankBurst is JankBurst janks inside JankWindow.
	TriggerJankBurst TriggerKind = "jank-burst"
	// TriggerFaultOnset is an injected fault episode opening.
	TriggerFaultOnset TriggerKind = "fault-onset"
)

// triggerIdx maps kinds to fixed array slots for cooldown bookkeeping.
const (
	idxWatchdog = iota
	idxFallback
	idxJankBurst
	idxFaultOnset
	numTriggers
)

// triggerKinds maps slots back to kinds, in slot order.
var triggerKinds = [numTriggers]TriggerKind{
	TriggerWatchdog, TriggerFallback, TriggerJankBurst, TriggerFaultOnset,
}

// Config parameterises a Ring. Zero values take the defaults above.
type Config struct {
	// Capacity is the retained-event window size.
	Capacity int
	// JankBurst janks inside JankWindow trip the jank-burst trigger.
	JankBurst int
	// JankWindow is the jank-burst sliding window.
	JankWindow simtime.Duration
	// Cooldown is the per-trigger-kind refractory period (virtual time).
	Cooldown simtime.Duration
	// MaxDumps bounds dumps per run.
	MaxDumps int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	if c.JankBurst <= 0 {
		c.JankBurst = DefaultJankBurst
	}
	if c.JankWindow <= 0 {
		c.JankWindow = DefaultJankWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = DefaultMaxDumps
	}
	return c
}

// Trigger records what tripped a dump.
type Trigger struct {
	// Kind classifies the trigger.
	Kind TriggerKind `json:"kind"`
	// At is the trigger instant.
	At simtime.Time `json:"at"`
	// Detail carries the tripping event's context.
	Detail string `json:"detail,omitempty"`
}

// Dump is one anomaly snapshot: the retained event window at the trigger.
type Dump struct {
	// SchemaVersion is the trace vocabulary the events were recorded under.
	SchemaVersion int `json:"schema"`
	// Trigger is what tripped the snapshot.
	Trigger Trigger `json:"trigger"`
	// Events is the retained window, oldest first.
	Events []trace.Event `json:"events"`
}

// Ring is the flight recorder: a trace.Sink over a fixed-capacity ring.
// The ring and the jank-burst window are reserved at construction; the
// steady-state Add path never allocates. Only a trigger firing (an
// anomaly, by definition off the steady-state path) copies the window out
// into a Dump.
type Ring struct {
	cfg  Config
	buf  []trace.Event
	head int // index of the oldest retained event
	size int

	scratch []trace.Event // linearisation buffer for Events()

	lastAt   simtime.Time
	haveLast bool

	jank     []simtime.Time // last JankBurst jank instants, circular
	jankPos  int
	jankSeen int

	lastDump [numTriggers]simtime.Time
	haveDump [numTriggers]bool
	dumps    []Dump
	preDumps int // dumps taken before a checkpoint cut (resume only)

	burstDetail string // precomputed jank-burst trigger detail
}

// New returns a Ring with all storage reserved up front.
func New(cfg Config) *Ring {
	cfg = cfg.withDefaults()
	return &Ring{
		cfg:     cfg,
		buf:     make([]trace.Event, cfg.Capacity),
		scratch: make([]trace.Event, 0, cfg.Capacity),
		jank:    make([]simtime.Time, cfg.JankBurst),
		dumps:   make([]Dump, 0, cfg.MaxDumps),
		burstDetail: fmt.Sprintf("janks=%d window=%.0fms",
			cfg.JankBurst, cfg.JankWindow.Milliseconds()),
	}
}

// Config returns the ring's effective (default-filled) configuration.
func (r *Ring) Config() Config { return r.cfg }

// Add retains one event, evicting the oldest when full, and runs trigger
// detection. Append order must be non-decreasing in time, like
// trace.Recorder.Add.
//
//dvlint:hotpath called for every recorded simulation event
func (r *Ring) Add(ev trace.Event) {
	if r.haveLast && ev.At < r.lastAt {
		panic(fmt.Sprintf("flight: out-of-order event at %v after %v", ev.At, r.lastAt))
	}
	r.lastAt, r.haveLast = ev.At, true
	tail := r.head + r.size
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	r.buf[tail] = ev
	if r.size < len(r.buf) {
		r.size++
	} else {
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}

	switch ev.Kind {
	case trace.Jank:
		r.jank[r.jankPos] = ev.At
		r.jankPos++
		if r.jankPos == len(r.jank) {
			r.jankPos = 0
		}
		if r.jankSeen < len(r.jank) {
			r.jankSeen++
		}
		if r.jankSeen == len(r.jank) {
			// After the advance, jankPos indexes the oldest of the last
			// JankBurst janks.
			if ev.At.Sub(r.jank[r.jankPos]) <= r.cfg.JankWindow {
				r.maybeTrigger(idxJankBurst, ev.At, r.burstDetail)
			}
		}
	case trace.Fallback:
		if strings.HasPrefix(ev.Detail, "to=VSync") {
			r.maybeTrigger(idxFallback, ev.At, ev.Detail)
		}
	case trace.FaultOnset:
		r.maybeTrigger(idxFaultOnset, ev.At, ev.Detail)
	}
}

// TripWatchdog fires the watchdog trigger: the simulator calls it when
// the engine's health watchdog aborts a run.
func (r *Ring) TripWatchdog(at simtime.Time, detail string) {
	r.maybeTrigger(idxWatchdog, at, detail)
}

// maybeTrigger snapshots the retained window unless the per-kind cooldown
// or the dump cap suppresses it. Runs only on anomalies, so it may
// allocate.
func (r *Ring) maybeTrigger(idx int, at simtime.Time, detail string) {
	if r.preDumps+len(r.dumps) >= r.cfg.MaxDumps {
		return
	}
	if r.haveDump[idx] && at.Sub(r.lastDump[idx]) < r.cfg.Cooldown {
		return
	}
	r.lastDump[idx], r.haveDump[idx] = at, true
	// Recycle the event buffer a previous run's dump left in this slot:
	// Reset rewinds r.dumps to length 0 but keeps the backing array, so a
	// reused Runner that triggers the same dumps every run reaches zero
	// steady-state allocations even on the anomaly path.
	var events []trace.Event
	if n := len(r.dumps); n < cap(r.dumps) {
		events = r.dumps[: n+1 : cap(r.dumps)][n].Events[:0]
	}
	events = append(events, r.window()...)
	r.dumps = append(r.dumps, Dump{
		SchemaVersion: trace.SchemaVersion,
		Trigger:       Trigger{Kind: triggerKinds[idx], At: at, Detail: detail},
		Events:        events,
	})
}

// window linearises the ring into the scratch buffer, oldest first. The
// returned slice is valid until the next Add.
func (r *Ring) window() []trace.Event {
	r.scratch = r.scratch[:0]
	for i := 0; i < r.size; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		r.scratch = append(r.scratch, r.buf[j])
	}
	return r.scratch
}

// Dumps returns the snapshots taken this run, in trigger order. The
// snapshots (including their event slices) are valid until the next
// Reset — a later run recycles their storage. After a checkpoint resume
// it holds only post-cut snapshots; PreDumps reports how many the
// straight run had taken by the cut, so dump indices stay aligned
// between straight and resumed runs.
func (r *Ring) Dumps() []Dump { return r.dumps }

// PreDumps returns the pre-cut dump count after a RestoreState (0 on a
// straight run).
func (r *Ring) PreDumps() int { return r.preDumps }

// DumpIDs names the dumps Dumps returns, in the same order: entry i is
// DumpID(cfgDigest, PreDumps()+i, Dumps()[i].Trigger.Kind), so a resumed
// run names its post-cut dumps exactly as the straight run does. It is
// the one place dumps are numbered.
func (r *Ring) DumpIDs(cfgDigest string) []string {
	ids := make([]string, len(r.dumps))
	for i := range r.dumps {
		ids[i] = DumpID(cfgDigest, r.preDumps+i, r.dumps[i].Trigger.Kind)
	}
	return ids
}

// Reserve is a no-op: ring storage is fixed at construction.
//
//dvlint:hotpath sizing call on the recording path
func (r *Ring) Reserve(int) {}

// Reset rewinds the ring for the next run, keeping all storage.
//
//dvlint:hotpath reused across runs on the recording path
func (r *Ring) Reset() {
	r.head, r.size = 0, 0
	r.haveLast, r.lastAt = false, 0
	r.jankPos, r.jankSeen = 0, 0
	for i := range r.lastDump {
		r.lastDump[i], r.haveDump[i] = 0, false
	}
	r.dumps = r.dumps[:0]
	r.preDumps = 0
}

// Events returns the retained window, oldest first. The slice is valid
// until the next Add or Reset.
func (r *Ring) Events() []trace.Event { return r.window() }

// Len returns the retained event count.
func (r *Ring) Len() int { return r.size }

// Restore replaces the retained window with checkpointed events (the
// trace.Sink contract). Trigger bookkeeping that cannot be derived from
// the window alone — jank-burst times, cooldowns, the dump count —
// resets; checkpoint resume goes through RestoreState instead, which
// carries all of it.
func (r *Ring) Restore(events []trace.Event) error {
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			return fmt.Errorf("flight: restored events out of order at %d", i)
		}
	}
	r.Reset()
	if n := len(events) - len(r.buf); n > 0 {
		events = events[n:]
	}
	copy(r.buf, events)
	r.size = len(events)
	if r.size > 0 {
		r.lastAt, r.haveLast = events[r.size-1].At, true
	}
	return nil
}

// TriggerMark is one per-kind cooldown entry in a State, kept as a sorted
// slice (kind order) so serialisation never depends on map order.
type TriggerMark struct {
	Kind   TriggerKind  `json:"kind"`
	LastAt simtime.Time `json:"last_at"`
}

// State is the ring's checkpoint payload: the retained window plus all
// trigger bookkeeping, so a resumed run's post-cut trigger stream is a
// pure continuation of the straight run's.
type State struct {
	// Events is the retained window, oldest first.
	Events []trace.Event `json:"events"`
	// LastAt / HaveLast pin the order check.
	LastAt   simtime.Time `json:"last_at"`
	HaveLast bool         `json:"have_last,omitempty"`
	// Janks is the jank-burst window contents, oldest first.
	Janks []simtime.Time `json:"janks,omitempty"`
	// Cooldowns lists per-kind last-dump instants in fixed kind order.
	Cooldowns []TriggerMark `json:"cooldowns,omitempty"`
	// Dumps is how many dumps the run had taken by the cut; it counts
	// toward MaxDumps on resume. The dumps themselves stay with the
	// straight run's artifacts — a resumed run reproduces only post-cut
	// dumps.
	Dumps int `json:"dumps"`
}

// CaptureState snapshots the ring for a checkpoint.
func (r *Ring) CaptureState() *State {
	st := &State{
		Events:   append([]trace.Event(nil), r.window()...),
		LastAt:   r.lastAt,
		HaveLast: r.haveLast,
		Dumps:    r.preDumps + len(r.dumps),
	}
	if r.jankSeen > 0 {
		st.Janks = make([]simtime.Time, 0, r.jankSeen)
		start := r.jankPos - r.jankSeen
		if start < 0 {
			start += len(r.jank)
		}
		for i := 0; i < r.jankSeen; i++ {
			j := start + i
			if j >= len(r.jank) {
				j -= len(r.jank)
			}
			st.Janks = append(st.Janks, r.jank[j])
		}
	}
	for i := 0; i < numTriggers; i++ {
		if r.haveDump[i] {
			st.Cooldowns = append(st.Cooldowns, TriggerMark{Kind: triggerKinds[i], LastAt: r.lastDump[i]})
		}
	}
	return st
}

// RestoreState rewinds the ring to a checkpointed state. Pre-cut dumps
// are accounted (the cap and cooldowns continue) but not rematerialised:
// Dumps() after resume returns only post-cut snapshots.
func (r *Ring) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("flight: nil state")
	}
	if len(st.Events) > len(r.buf) {
		return fmt.Errorf("flight: state window %d exceeds ring capacity %d", len(st.Events), len(r.buf))
	}
	if len(st.Janks) > len(r.jank) {
		return fmt.Errorf("flight: state jank window %d exceeds burst size %d", len(st.Janks), len(r.jank))
	}
	if st.Dumps < 0 || st.Dumps > r.cfg.MaxDumps {
		return fmt.Errorf("flight: state dump count %d outside [0, %d]", st.Dumps, r.cfg.MaxDumps)
	}
	if err := r.Restore(st.Events); err != nil {
		return err
	}
	r.lastAt, r.haveLast = st.LastAt, st.HaveLast
	for i, at := range st.Janks {
		if i > 0 && at < st.Janks[i-1] {
			return fmt.Errorf("flight: state janks out of order at %d", i)
		}
		r.jank[i] = at
	}
	r.jankSeen = len(st.Janks)
	r.jankPos = r.jankSeen
	if r.jankPos == len(r.jank) {
		r.jankPos = 0
	}
	for _, cd := range st.Cooldowns {
		idx := -1
		for i, k := range triggerKinds {
			if k == cd.Kind {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("flight: state cooldown for unknown trigger %q", cd.Kind)
		}
		r.lastDump[idx], r.haveDump[idx] = cd.LastAt, true
	}
	r.preDumps = st.Dumps
	return nil
}
