package flight

import (
	"strings"

	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

// Trigger slots index the per-kind cooldown bookkeeping.
const (
	idxWatchdog = iota
	idxFallback
	idxJankBurst
	idxFaultOnset
	numTriggers
)

// Triggers holds the recorder's trigger rules, and is their only
// implementation: which events are symptoms, the jank-burst window, the
// per-kind cooldown and the MaxDumps cap. It decides which symptoms
// become dumps; it keeps no events. A Ring feeds it every event it
// records and snapshots its window when a dump is taken. sim feeds it
// the symptoms a bare run's Result lists, in recording order, to name
// the dumps a ring on that run would take without attaching one
// (DESIGN.md §15).
type Triggers struct {
	cfg Config

	jank     []simtime.Time // last JankBurst jank instants, circular
	jankPos  int
	jankSeen int

	lastDump [numTriggers]simtime.Time
	haveDump [numTriggers]bool
	taken    int // dumps taken this run
}

// NewTriggers returns the trigger rules of cfg, zero fields defaulted,
// so NewTriggers(Config{}) takes the dumps New(Config{}) takes.
func NewTriggers(cfg Config) *Triggers {
	t := newTriggers(cfg.withDefaults())
	return &t
}

// newTriggers reserves the jank window of a default-filled cfg.
func newTriggers(cfg Config) Triggers {
	return Triggers{cfg: cfg, jank: make([]simtime.Time, cfg.JankBurst)}
}

// Observe applies the rules to one recorded event: a jank that completes
// a burst, a §4.5 fallback to VSync (its detail starts "to=VSync";
// recoveries do not count) or a fault-episode onset. It reports the
// trigger kind and whether a dump is taken; the cooldown or the cap may
// suppress it. Events must arrive in recording order.
//
//dvlint:hotpath called for every event a flight ring records
func (t *Triggers) Observe(kind trace.EventKind, at simtime.Time, detail string) (TriggerKind, bool) {
	switch kind {
	case trace.Jank:
		t.jank[t.jankPos] = at
		t.jankPos++
		if t.jankPos == len(t.jank) {
			t.jankPos = 0
		}
		if t.jankSeen < len(t.jank) {
			t.jankSeen++
		}
		// After the advance, jankPos indexes the oldest of the last
		// JankBurst janks.
		if t.jankSeen == len(t.jank) && at.Sub(t.jank[t.jankPos]) <= t.cfg.JankWindow {
			return TriggerJankBurst, t.take(idxJankBurst, at)
		}
	case trace.Fallback:
		if strings.HasPrefix(detail, "to=VSync") {
			return TriggerFallback, t.take(idxFallback, at)
		}
	case trace.FaultOnset:
		return TriggerFaultOnset, t.take(idxFaultOnset, at)
	}
	return "", false
}

// Watchdog reports whether an engine watchdog trip at the given instant
// takes a dump. A run trips it at most once, after its last event.
func (t *Triggers) Watchdog(at simtime.Time) bool { return t.take(idxWatchdog, at) }

// take books a dump in slot idx unless the dump cap or the slot's
// cooldown suppresses it.
func (t *Triggers) take(idx int, at simtime.Time) bool {
	if t.taken >= t.cfg.MaxDumps {
		return false
	}
	if t.haveDump[idx] && at.Sub(t.lastDump[idx]) < t.cfg.Cooldown {
		return false
	}
	t.lastDump[idx], t.haveDump[idx] = at, true
	t.taken++
	return true
}

// reset rewinds the rules for the next run, keeping the jank window.
func (t *Triggers) reset() {
	t.jankPos, t.jankSeen = 0, 0
	t.lastDump, t.haveDump = [numTriggers]simtime.Time{}, [numTriggers]bool{}
	t.taken = 0
}
