// Package vsyncrec holds exact recurrences of the two pipelines the paper
// compares (DESIGN.md §4), written apart from the event simulator: instead
// of dispatching events each steps once per hardware VSync edge. One is the
// conventional VSync pipeline of Figure 2; the other is D-VSync's decoupled
// pipeline, whose Frame Pre-Executor (FPE, §4.3) runs frames ahead of the
// display under the pre-render limit (Figure 10's accumulation and sync
// stages). Both share one Result, so FDPS has one definition. They have
// two roles. As oracles, tests hold each equal to internal/sim on seeded
// grids and under a fuzz target, so a wrong answer in either model cannot
// stay pinned unnoticed (DESIGN.md §5). As fast paths, the VSync model
// answers every probe of the exp package's calibration searches, and the
// two together compute every replica of the exp package's FDPS figures.
//
// Both domains have a panel on its nominal grid (no jitter, skew, edge
// delay or edge miss), no faults, no LTPO, no stale-buffer drop, no
// content sampling and the trace-derived horizon (sim.Config's MaxSimTime
// 0), at any VSync-app offset. The VSync model takes any pipeline depth.
// The D-VSync model takes any pre-render limit, with the controller on, no
// runtime switch, fallback or FPE backoff, and every frame on the
// decoupled channel (a deterministic animation, or interactive input with
// a predictor registered). Observers (a trace sink, a telemetry registry)
// never change a run, and the Display Time Virtualizer only stamps
// timestamps, so they are in the domains too.
//
// The ordering rules all follow from the engine's event priorities: at one
// instant hardware edges fire first, then delayed software signals, then
// pipeline stage completions.
//
//   - A buffer can be latched at edge t only if its render stage finished
//     strictly before t.
//   - At each edge the latch-or-jank decision runs before any frame starts
//     at that instant; a zero-offset VSync-app tick is delivered inside the
//     edge, after the latch.
//   - A jank needs a front buffer and an unfinished stream: an index not
//     yet started, or a frame in flight or queued. Its key-frame flag is
//     whether the oldest in-flight frame's UI + RS cost exceeds the period.
//   - A started frame's render stage begins at max(its UI done, the
//     previous render done).
//   - The run stops at the first edge where the stream is done and nothing
//     is queued, or else at the horizon, (n+64)·8 periods + 1 s: edges,
//     ticks and completions after it never fire.
//
// VSync starts frames only at VSync-app ticks:
//
//   - Tick j targets slot min(j, n−1). It starts that slot if the slot is
//     at or past the next index, the UI stage is free (busy-until ≤ the
//     tick, a time comparison), a buffer is free (Buffers − in flight −
//     queued − front) and fewer than Depth frames are in flight or queued.
//     Slots between the next index and the target are skipped.
//
// D-VSync's FPE pumps: it starts the next index, never skipping one, for
// as long as the UI stage is free, fewer than the pre-render limit are in
// flight or queued and a buffer is free.
//
//   - Pumps run at every VSync-app tick (the first tick opens the stream),
//     at every latching edge just after the latch, and at every UI-stage
//     completion. Render completions change neither count, so they never
//     pump.
//   - The conditions only clear at a pump instant: the UI stage frees at
//     its completion and a slot at a latch. So the next frame starts at
//     max(the last start's UI completion, the first tick, the last latch),
//     once the limit and a buffer allow, and later ticks start nothing.
package vsyncrec

import (
	"fmt"

	"dvsync/internal/metrics"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// Config is a pipeline inside one of the recurrences' domains.
type Config struct {
	// RefreshHz is the panel rate: edge k fires at k·PeriodForHz(RefreshHz).
	RefreshHz int
	// Buffers is the pool size, front buffer included.
	Buffers int
	// AppOffset delays each VSync-app tick after its hardware edge.
	AppOffset simtime.Duration
	// Depth caps the frames in flight or queued on the VSync path; zero
	// means 2, Figure 2's pipeline.
	Depth int
	// DVSync selects the D-VSync model.
	DVSync bool
	// PreRenderLimit caps the frames in flight or queued in D-VSync; zero
	// means Buffers − 1.
	PreRenderLimit int
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

// Model runs one recurrence for one Config. It is reusable: a warm Run
// allocates nothing. A Model is not safe for concurrent use.
type Model struct {
	period  simtime.Duration
	buffers int
	offset  simtime.Duration
	dvsync  bool
	// limit caps the frames in flight or queued: the VSync depth or the
	// D-VSync pre-render limit.
	limit int
	// ahead is a ring of the started, unlatched frames in start order.
	// Render stages run in start order, so the queued frames are a prefix
	// of it and the in-flight ones the rest. It never holds more than
	// min(limit, buffers) frames.
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
	case cfg.PreRenderLimit < 0:
		panic(fmt.Sprintf("vsyncrec: negative pre-render limit %d", cfg.PreRenderLimit))
	}
	limit := cfg.Depth
	if limit == 0 {
		limit = 2
	}
	if cfg.DVSync {
		limit = cfg.PreRenderLimit
		if limit == 0 {
			limit = cfg.Buffers - 1
		}
	}
	return &Model{
		period:  simtime.PeriodForHz(cfg.RefreshHz),
		buffers: cfg.Buffers,
		offset:  cfg.AppOffset,
		dvsync:  cfg.DVSync,
		limit:   limit,
		ahead:   make([]frame, min(limit, cfg.Buffers)),
	}
}

// Run steps the recurrence over tr, edge by edge, and returns the result,
// which stays valid until the next Run. The trace must be non-empty.
//
//dvlint:hotpath runs once per calibration probe and FDPS replica
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
	latched := simtime.Time(0)            // the last latching edge
	open := simtime.Time(0).Add(m.offset) // the first VSync-app tick
	for k := 0; ; k++ {
		edge := simtime.Time(0).Add(simtime.Duration(k) * p)
		// Frames start before this edge; one at the edge's instant starts
		// after its latch.
		if m.dvsync {
			// The FPE's pumps: the next index starts at the first pump
			// instant that finds every condition met.
			for next < n && ahead < m.limit && ahead+front < m.buffers {
				at := max(uiBusy, latched, open)
				if at >= edge || at > horizon {
					break
				}
				c := costs[next]
				next++
				uiBusy = at.Add(c.UI)
				rsBusy = max(uiBusy, rsBusy).Add(c.RS)
				tail := head + ahead
				if tail >= size {
					tail -= size
				}
				ring[tail] = frame{rsDone: rsBusy, key: c.UI+c.RS > p}
				ahead++
			}
		} else {
			// The VSync-app ticks, each starting its slot if it can.
			for {
				at := simtime.Time(0).Add(simtime.Duration(tick)*p + m.offset)
				if at >= edge || at > horizon {
					break
				}
				if target := min(tick, n-1); target >= next && uiBusy <= at &&
					ahead < m.limit && ahead+front < m.buffers {
					c := costs[target]
					res.Skipped += target - next
					next = target + 1
					uiBusy = at.Add(c.UI)
					rsBusy = max(uiBusy, rsBusy).Add(c.RS)
					tail := head + ahead
					if tail >= size {
						tail -= size
					}
					ring[tail] = frame{rsDone: rsBusy, key: c.UI+c.RS > p}
					ahead++
				}
				tick++
			}
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
			latched = edge
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
