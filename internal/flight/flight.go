// Package flight is the always-on flight recorder (DESIGN.md §15): a
// fixed-capacity ring that implements trace.Sink, retains the last N
// events of a run at zero steady-state allocations, and — on a
// deterministic trigger (health-watchdog trip, §4.5 fallback, jank burst,
// fault-episode onset) — snapshots the retained window into a versioned,
// digest-pinned anomaly dump.
//
// Everything is a function of virtual time and the event stream: the same
// run produces the same dumps byte-for-byte at any worker width, from a
// fresh or reused Runner, and across a crash and resume — a resumed run
// replays its prefix into a fresh ring, so the ring holds no state a
// checkpoint would need to carry.
package flight

import (
	"fmt"

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

	trig  Triggers
	dumps []Dump

	burstDetail string // precomputed jank-burst trigger detail
}

// New returns a Ring with all storage reserved up front.
func New(cfg Config) *Ring {
	cfg = cfg.withDefaults()
	return &Ring{
		cfg:     cfg,
		buf:     make([]trace.Event, cfg.Capacity),
		scratch: make([]trace.Event, 0, cfg.Capacity),
		trig:    newTriggers(cfg),
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

	if kind, ok := r.trig.Observe(ev.Kind, ev.At, ev.Detail); ok {
		detail := ev.Detail
		if kind == TriggerJankBurst {
			detail = r.burstDetail
		}
		r.snapshot(kind, ev.At, detail)
	}
}

// TripWatchdog fires the watchdog trigger: the simulator calls it when
// the engine's health watchdog aborts a run.
func (r *Ring) TripWatchdog(at simtime.Time, detail string) {
	if r.trig.Watchdog(at) {
		r.snapshot(TriggerWatchdog, at, detail)
	}
}

// snapshot copies the retained window into a new dump. Runs only on
// anomalies the trigger rules let through, so it may allocate.
func (r *Ring) snapshot(kind TriggerKind, at simtime.Time, detail string) {
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
		Trigger:       Trigger{Kind: kind, At: at, Detail: detail},
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
// Reset — a later run recycles their storage.
func (r *Ring) Dumps() []Dump { return r.dumps }

// DumpIDs names the dumps Dumps returns, in the same order: entry i is
// DumpID(cfgDigest, i, Dumps()[i].Trigger.Kind). It is the one place
// dumps are numbered.
func (r *Ring) DumpIDs(cfgDigest string) []string {
	ids := make([]string, len(r.dumps))
	for i := range r.dumps {
		ids[i] = DumpID(cfgDigest, i, r.dumps[i].Trigger.Kind)
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
	r.trig.reset()
	r.dumps = r.dumps[:0]
}

// Events returns the retained window, oldest first. The slice is valid
// until the next Add or Reset.
func (r *Ring) Events() []trace.Event { return r.window() }

// Len returns the retained event count.
func (r *Ring) Len() int { return r.size }
