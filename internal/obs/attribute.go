// Causal attribution: walk every jank / edge-missed / fallback instant in
// a recorded event stream back to its proximate and root cause. This is
// the "why was this frame late?" half of the flight-recorder contract
// (DESIGN.md §15): Attribute is a pure function of the events — fault
// episodes and DTV re-anchors arrive as schema-v3 in-stream markers, so a
// flight-recorder dump attributes identically to the full trace it was
// cut from, byte-for-byte at any worker width.
package obs

import (
	"fmt"
	"io"
	"strings"

	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

// CauseKind names one link in a cause chain. The attribution priority is
// fixed and documented: fault-episode > render-stall > queue-starvation >
// dtv-reanchor > ltpo-rate-change; health links annotate fallback
// transitions; unattributed marks instants no rule matched (never emitted
// for traces recorded by this schema version's simulator).
type CauseKind string

// Cause kinds, strongest root first.
const (
	// CauseFaultEpisode roots a chain in an injected fault episode.
	CauseFaultEpisode CauseKind = "fault-episode"
	// CauseRenderStall marks a frame still in UI/render at the instant.
	CauseRenderStall CauseKind = "render-stall"
	// CauseQueueStarvation marks an empty buffer queue with no frame in
	// flight — the producer had nothing underway at the edge.
	CauseQueueStarvation CauseKind = "queue-starvation"
	// CauseDTVReAnchor links a calibration re-anchor just before the instant.
	CauseDTVReAnchor CauseKind = "dtv-reanchor"
	// CauseRateChange links an LTPO refresh-rate switch just before it.
	CauseRateChange CauseKind = "ltpo-rate-change"
	// CauseHealth carries the §4.5 supervisor transition (direction+reason).
	CauseHealth CauseKind = "health"
	// CausePanelMiss marks a skipped refresh with no fault in stream.
	CausePanelMiss CauseKind = "panel-miss"
	// CauseUnattributed marks an instant no rule matched.
	CauseUnattributed CauseKind = "unattributed"
)

// recentWindow bounds how far back a rate change or DTV re-anchor may sit
// and still count as the cause of a starved edge: three 60 Hz periods.
const recentWindow = 50 * simtime.Millisecond

// Cause is one link in a chain, proximate to root.
type Cause struct {
	// Kind classifies the link.
	Kind CauseKind `json:"kind"`
	// At is when the causing condition took effect.
	At simtime.Time `json:"at"`
	// Frame is the implicated frame (-1 when not frame-related).
	Frame int `json:"frame"`
	// Detail carries the condition's own context (fault episode id and
	// severity, fallback direction and reason, stall length).
	Detail string `json:"detail,omitempty"`
}

// CauseChain explains one jank / edge-missed / fallback instant. Causes
// run proximate-first; the last element is the root cause.
type CauseChain struct {
	// At is the explained instant.
	At simtime.Time `json:"at"`
	// Instant names it: jank, edge-missed, or fallback.
	Instant string `json:"instant"`
	// EdgeSeq is the panel edge index where applicable.
	EdgeSeq uint64 `json:"edge,omitempty"`
	// Causes is the proximate→root chain, never empty.
	Causes []Cause `json:"causes"`
}

// Root returns the chain's root (last) cause.
func (c *CauseChain) Root() Cause { return c.Causes[len(c.Causes)-1] }

// faultWindow is one fault episode reconstructed from in-stream markers.
type faultWindow struct {
	key    string // "class=<name> episode=<i>", the FaultEnd match key
	detail string // full FaultOnset detail, including severity
	start  simtime.Time
	end    simtime.Time
	open   bool
}

// Attribute walks every jank, edge-missed and fallback instant of the
// event stream back through its frame's span chain to a proximate and
// root cause, in time order. Chains are deterministic: the same events
// yield the same chains, byte-for-byte once serialised.
func Attribute(events []trace.Event) []CauseChain {
	m := BuildEvents(events)

	// Fault windows from schema-v3 markers, in onset order. A FaultEnd
	// closes the matching open window; markers never interleave within one
	// class+episode key, so a linear scan suffices.
	var windows []faultWindow
	var reAnchors, rateChanges []simtime.Time
	for _, ev := range events {
		switch ev.Kind {
		case trace.FaultOnset:
			windows = append(windows, faultWindow{
				key: episodeKey(ev.Detail), detail: ev.Detail, start: ev.At, open: true,
			})
		case trace.FaultEnd:
			key := episodeKey(ev.Detail)
			for i := len(windows) - 1; i >= 0; i-- {
				if windows[i].open && windows[i].key == key {
					windows[i].end, windows[i].open = ev.At, false
					break
				}
			}
		case trace.DTVReAnchor:
			reAnchors = append(reAnchors, ev.At)
		case trace.RateChange:
			rateChanges = append(rateChanges, ev.At)
		}
	}

	// activeAt returns the latest-started fault window covering t (episode
	// ends are exclusive, matching fault.Episode.Active).
	activeAt := func(t simtime.Time) *faultWindow {
		var hit *faultWindow
		for i := range windows {
			w := &windows[i]
			if w.start <= t && (w.open || t < w.end) {
				if hit == nil || w.start >= hit.start {
					hit = w
				}
			}
		}
		return hit
	}
	// overlapping returns the latest-started fault window intersecting
	// [from, to].
	overlapping := func(from, to simtime.Time) *faultWindow {
		var hit *faultWindow
		for i := range windows {
			w := &windows[i]
			if w.start <= to && (w.open || from < w.end) {
				if hit == nil || w.start >= hit.start {
					hit = w
				}
			}
		}
		return hit
	}
	// recent returns the latest time in ts within recentWindow before t.
	recent := func(ts []simtime.Time, t simtime.Time) (simtime.Time, bool) {
		for i := len(ts) - 1; i >= 0; i-- {
			if ts[i] <= t {
				if t.Sub(ts[i]) <= recentWindow {
					return ts[i], true
				}
				return 0, false
			}
		}
		return 0, false
	}
	// inFlight returns the oldest frame started but not yet queued at t:
	// the frame the display was waiting on.
	inFlight := func(t simtime.Time) *FrameSpan {
		for i := range m.Spans {
			f := &m.Spans[i]
			if f.Start > t {
				break
			}
			if !f.HasQueued || f.Queued > t {
				return f
			}
		}
		return nil
	}
	faultCause := func(w *faultWindow) Cause {
		return Cause{Kind: CauseFaultEpisode, At: w.start, Frame: -1, Detail: w.detail}
	}

	var chains []CauseChain
	for _, in := range m.Instants {
		chain := CauseChain{At: in.At, Instant: in.Name, EdgeSeq: in.EdgeSeq}
		switch in.Name {
		case "jank":
			if f := inFlight(in.At); f != nil {
				chain.Causes = append(chain.Causes, Cause{
					Kind: CauseRenderStall, At: f.Start, Frame: f.Frame,
					Detail: fmt.Sprintf("frame %d in flight %.3fms", f.Frame, in.At.Sub(f.Start).Milliseconds()),
				})
				if w := overlapping(f.Start, in.At); w != nil {
					chain.Causes = append(chain.Causes, faultCause(w))
				}
			} else {
				chain.Causes = append(chain.Causes, Cause{
					Kind: CauseQueueStarvation, At: in.At, Frame: -1,
					Detail: "no frame in flight at edge",
				})
				switch {
				case activeAt(in.At) != nil:
					chain.Causes = append(chain.Causes, faultCause(activeAt(in.At)))
				default:
					if at, ok := recent(rateChanges, in.At); ok {
						chain.Causes = append(chain.Causes, Cause{Kind: CauseRateChange, At: at, Frame: -1})
					} else if at, ok := recent(reAnchors, in.At); ok {
						chain.Causes = append(chain.Causes, Cause{Kind: CauseDTVReAnchor, At: at, Frame: -1})
					}
				}
			}
		case "edge-missed":
			chain.Causes = append(chain.Causes, Cause{
				Kind: CausePanelMiss, At: in.At, Frame: -1, Detail: "panel skipped refresh",
			})
			if w := activeAt(in.At); w != nil {
				chain.Causes = append(chain.Causes, faultCause(w))
			}
		case "fallback":
			chain.Causes = append(chain.Causes, Cause{
				Kind: CauseHealth, At: in.At, Frame: -1, Detail: in.Detail,
			})
			if strings.HasPrefix(in.Detail, "to=VSync") {
				if strings.Contains(in.Detail, "reason=stall") {
					if f := inFlight(in.At); f != nil {
						chain.Causes = append(chain.Causes, Cause{
							Kind: CauseRenderStall, At: f.Start, Frame: f.Frame,
							Detail: fmt.Sprintf("frame %d in flight %.3fms", f.Frame, in.At.Sub(f.Start).Milliseconds()),
						})
					}
				}
				if w := activeAt(in.At); w != nil {
					chain.Causes = append(chain.Causes, faultCause(w))
				}
			}
		default:
			continue // rate changes and markers are causes, not symptoms
		}
		if len(chain.Causes) == 0 {
			chain.Causes = append(chain.Causes, Cause{Kind: CauseUnattributed, At: in.At, Frame: -1})
		}
		chains = append(chains, chain)
	}
	return chains
}

// episodeKey strips the severity suffix from a fault marker detail so
// onset and end markers of one episode share a key.
func episodeKey(detail string) string {
	if i := strings.Index(detail, " severity="); i >= 0 {
		return detail[:i]
	}
	return detail
}

// String renders one cause link as kind(detail).
func (c Cause) String() string {
	if c.Detail == "" {
		return fmt.Sprintf("%s(at %.3fms)", c.Kind, c.At.Milliseconds())
	}
	return fmt.Sprintf("%s(%s)", c.Kind, c.Detail)
}

// chainString renders the proximate→root chain with " <- " separators.
func (c *CauseChain) chainString() string {
	parts := make([]string, len(c.Causes))
	for i, cause := range c.Causes {
		parts[i] = cause.String()
	}
	return strings.Join(parts, " <- ")
}

// WriteCauseTable renders chains as the aligned text table behind
// `dvtrace -why`: one line per explained instant, proximate→root.
func WriteCauseTable(w io.Writer, chains []CauseChain) {
	fmt.Fprintf(w, "%d attributed instants\n", len(chains))
	for i := range chains {
		c := &chains[i]
		loc := ""
		if c.EdgeSeq != 0 {
			loc = fmt.Sprintf(" edge=%d", c.EdgeSeq)
		}
		fmt.Fprintf(w, "%12.3fms  %-11s%s: %s\n",
			c.At.Milliseconds(), c.Instant, loc, c.chainString())
	}
}
