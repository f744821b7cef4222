// Package vsyncrec is an exact recurrence of the conventional VSync
// pipeline of the paper's Figure 2 (DESIGN.md §4), written apart from the
// event simulator: instead of dispatching events it steps once per
// hardware VSync edge. It has two roles. As an oracle, tests hold it equal
// to internal/sim on seeded grids and under a fuzz target, so a wrong
// answer in either model cannot stay pinned unnoticed (DESIGN.md §5). As
// calibration's fast path, it answers every probe of the exp package's
// searches, which read only a run's jank edges.
//
// The domain is a VSync run with zero jitter and skew, no faults, no LTPO,
// no stale-buffer drop and the trace-derived horizon (sim.Config's
// MaxSimTime 0), at any VSync-app offset and pipeline depth. Observers (a
// trace sink, a telemetry registry) never change a run, so they are in the
// domain too.
//
// The ordering rules all follow from the engine's event priorities: at one
// instant hardware edges fire first, then delayed software signals, then
// pipeline stage completions.
//
//   - A buffer can be latched at edge t only if its render stage finished
//     strictly before t.
//   - At each edge the latch-or-jank decision runs before the VSync-app
//     tick; a zero-offset tick is delivered inside the edge.
//   - A jank needs a front buffer and an unfinished stream: an index not
//     yet started, or a frame in flight or queued. Its key-frame flag is
//     whether the oldest in-flight frame's UI + RS cost exceeds the period.
//   - Tick j targets slot min(j, n−1). It starts that slot if the slot is
//     at or past the next index, the UI stage is free (busy-until ≤ the
//     tick, a time comparison), a buffer is free (Buffers − in flight −
//     queued − front) and fewer than Depth frames are in flight or queued.
//     Slots between the next index and the target are skipped.
//   - A started frame's render stage begins at max(its UI done, the
//     previous render done).
//   - The run stops at the first edge where the stream is done and nothing
//     is queued, or else at the horizon, (n+64)·8 periods + 1 s: edges and
//     ticks after it never fire.
package vsyncrec

import (
	"fmt"

	"dvsync/internal/metrics"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// Config is a VSync pipeline inside the recurrence's domain.
type Config struct {
	// RefreshHz is the panel rate: edge k fires at k·PeriodForHz(RefreshHz).
	RefreshHz int
	// Buffers is the pool size, front buffer included.
	Buffers int
	// AppOffset delays each VSync-app tick after its hardware edge.
	AppOffset simtime.Duration
	// Depth caps the frames in flight or queued; zero means 2, Figure 2's
	// pipeline.
	Depth int
}

// Result is one run's outcome: the fields of an event-simulator run that
// FDPS and stutter counting read. The Model owns it, and the next Run
// overwrites it.
type Result struct {
	// Janks lists the jank edges in edge order with their key-frame flags.
	Janks []metrics.JankEvent
	// FirstLatch and LastLatch are the first and last latching edges (zero
	// when nothing latched).
	FirstLatch, LastLatch simtime.Time
	// Presented counts latched frames.
	Presented int
	// Skipped counts trace indices never started.
	Skipped int
	// Completed is false when the horizon cut the run.
	Completed bool
}

// Jank is the run's frame-drop report: the active display window runs
// from the first latch to the last and holds every latch after the first
// plus every jank.
func (r *Result) Jank() metrics.JankReport {
	rep := metrics.JankReport{
		Janks:         len(r.Janks),
		WindowSeconds: r.LastLatch.Sub(r.FirstLatch).Seconds(),
	}
	if r.LastLatch > r.FirstLatch {
		rep.Edges = r.Presented - 1 + len(r.Janks)
	}
	return rep
}

// FDPS returns frame drops per second.
func (r *Result) FDPS() float64 { return r.Jank().FDPS() }

// frame is a started frame not yet latched.
type frame struct {
	rsDone simtime.Time // render-stage completion: queued from then on
	key    bool         // UI + RS cost over one period
}

// Model runs the recurrence for one Config. It is reusable: a warm Run
// allocates nothing. A Model is not safe for concurrent use.
type Model struct {
	period  simtime.Duration
	buffers int
	offset  simtime.Duration
	depth   int
	// ahead is a ring of the started, unlatched frames in start order.
	// Render stages run in start order, so the queued frames are a prefix
	// of it and the in-flight ones the rest. It never holds more than
	// min(depth, buffers) frames.
	ahead []frame
	res   Result
}

// New validates cfg and builds a Model for it.
func New(cfg Config) *Model {
	switch {
	case cfg.RefreshHz <= 0:
		panic(fmt.Sprintf("vsyncrec: invalid refresh rate %d", cfg.RefreshHz))
	case cfg.Buffers < 2:
		panic(fmt.Sprintf("vsyncrec: %d buffers cannot double-buffer", cfg.Buffers))
	case cfg.AppOffset < 0:
		panic(fmt.Sprintf("vsyncrec: negative VSync-app offset %v", cfg.AppOffset))
	case cfg.Depth < 0:
		panic(fmt.Sprintf("vsyncrec: negative pipeline depth %d", cfg.Depth))
	}
	depth := cfg.Depth
	if depth == 0 {
		depth = 2
	}
	return &Model{
		period:  simtime.PeriodForHz(cfg.RefreshHz),
		buffers: cfg.Buffers,
		offset:  cfg.AppOffset,
		depth:   depth,
		ahead:   make([]frame, min(depth, cfg.Buffers)),
	}
}

// Run steps the recurrence over tr, edge by edge, and returns the result,
// which stays valid until the next Run. The trace must be non-empty.
//
//dvlint:hotpath runs once per calibration probe
func (m *Model) Run(tr *workload.Trace) *Result {
	costs := tr.Costs
	n := len(costs)
	if n == 0 {
		panic("vsyncrec: empty trace")
	}
	p := m.period
	horizon := simtime.Time(0).Add(simtime.Duration(n+64)*p*8 + simtime.Second)
	res := &m.res
	*res = Result{Janks: res.Janks[:0]}
	ring, size := m.ahead, len(m.ahead)
	head, ahead := 0, 0 // ring index of the oldest frame; frames in the ring
	front := 0          // 1 once a buffer is on screen
	next := 0           // the next trace index to start
	tick := 0           // the next VSync-app tick
	var uiBusy, rsBusy simtime.Time
	for k := 0; ; k++ {
		edge := simtime.Time(0).Add(simtime.Duration(k) * p)
		// Ticks before this edge; one at the edge's instant fires after it.
		for {
			at := simtime.Time(0).Add(simtime.Duration(tick)*p + m.offset)
			if at >= edge || at > horizon {
				break
			}
			if target := min(tick, n-1); target >= next && uiBusy <= at &&
				ahead < m.depth && ahead+front < m.buffers {
				c := costs[target]
				res.Skipped += target - next
				next = target + 1
				uiBusy = at.Add(c.UI)
				rsBusy = simtime.Max(uiBusy, rsBusy).Add(c.RS)
				tail := head + ahead
				if tail >= size {
					tail -= size
				}
				ring[tail] = frame{rsDone: rsBusy, key: c.UI+c.RS > p}
				ahead++
			}
			tick++
		}
		if edge > horizon {
			return res
		}
		if ahead > 0 && ring[head].rsDone < edge {
			// Latch the oldest queued buffer; the old front is freed.
			if head++; head == size {
				head = 0
			}
			ahead--
			if front == 0 {
				front = 1
				res.FirstLatch = edge
			}
			res.LastLatch = edge
			res.Presented++
		} else if front == 1 && (next < n || ahead > 0) {
			// Nothing queued: the old frame repeats. Every frame in the
			// ring is in flight.
			res.Janks = append(res.Janks, metrics.JankEvent{
				EdgeSeq:  uint64(k),
				KeyFrame: ahead > 0 && ring[head].key,
			})
		}
		if front == 1 && next >= n && ahead == 0 {
			res.Completed = true
			return res
		}
	}
}
