// Package pipeline implements the frame production machinery shared by the
// VSync baseline and D-VSync: the app UI-thread stage and the render
// service/render-thread stage, executing frame workloads into the buffer
// queue (Figure 2's producer side).
//
// The two stages are distinct serial resources, so the UI stage of frame
// N+1 may overlap the render stage of frame N — the pipelining that lets
// OpenHarmony render consecutive frames in parallel (§2).
package pipeline

import (
	"fmt"

	"dvsync/internal/buffer"
	"dvsync/internal/event"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

// StartRequest describes one frame execution.
type StartRequest struct {
	// Index is the frame's position in the workload trace.
	Index int
	// ContentTime is the timestamp the frame renders its content for.
	ContentTime simtime.Time
	// DTimestamp is the DTV prediction (zero on the VSync path).
	DTimestamp simtime.Time
	// Decoupled marks FPE-triggered frames.
	Decoupled bool
	// RateHz is the refresh rate the frame targets (LTPO rate binding).
	RateHz int
}

// Producer executes frames through the two-stage pipeline into the queue.
type Producer struct {
	engine *event.Engine
	queue  *buffer.Queue
	trace  *workload.Trace

	uiBusyUntil simtime.Time
	rsBusyUntil simtime.Time
	inflight    []*buffer.Frame // dequeued, not yet queued (FIFO)

	// arena preallocates one Frame slot per trace index; TryStart hands out
	// pointers into it instead of heap-allocating per frame. startedIdx
	// guards the aliasing invariant: each index may be started successfully
	// at most once, or two live frames would share storage.
	arena      []buffer.Frame
	startedIdx []bool

	// uiPending/rsPending are the frames whose stage-completion events are
	// scheduled but not yet dispatched, in schedule order. UIDone and RSDone
	// are monotone in start order and the engine dispatches equal
	// (time, priority) events in insertion order, so the head of each queue
	// is always the frame the next dispatch belongs to — which lets a single
	// persistent handler replace the two per-frame closures TryStart used to
	// allocate.
	uiPending []*buffer.Frame
	rsPending []rsEntry
	uiDoneFn  event.Handler
	rsDoneFn  event.Handler

	// OnUIDone fires when a frame's UI stage completes (the moment the
	// next frame's request becomes actionable for the FPE).
	OnUIDone func(now simtime.Time, f *buffer.Frame)
	// OnQueued fires when a frame's buffer enters the queue.
	OnQueued func(now simtime.Time, f *buffer.Frame)

	// PerFrameOverhead is charged to the work accounting for every started
	// frame (the FPE+DTV bookkeeping cost of §6.4 when running D-VSync).
	PerFrameOverhead simtime.Duration

	// CostScale, when set, multiplies both stage costs of frames started at
	// now — the fault-injection hook for render/UI stall episodes
	// (internal/fault). Must return >= 1.
	CostScale func(now simtime.Time) float64

	started  int
	executed simtime.Duration // total stage time spent
	overhead simtime.Duration // total bookkeeping time spent
}

// rsEntry pairs a frame with the buffer it renders into, for the RS-done
// dispatch queue.
type rsEntry struct {
	f *buffer.Frame
	b *buffer.Buffer
}

// NewProducer builds a producer over the given queue and workload trace.
// All per-frame storage is preallocated here so the steady-state start
// path does not allocate.
func NewProducer(e *event.Engine, q *buffer.Queue, t *workload.Trace) *Producer {
	if t.Len() == 0 {
		panic("pipeline: empty workload trace")
	}
	p := &Producer{
		engine:     e,
		queue:      q,
		trace:      t,
		arena:      make([]buffer.Frame, t.Len()),
		startedIdx: make([]bool, t.Len()),
		inflight:   make([]*buffer.Frame, 0, 8),
		uiPending:  make([]*buffer.Frame, 0, 8),
		rsPending:  make([]rsEntry, 0, 8),
	}
	p.uiDoneFn = p.dispatchUIDone
	p.rsDoneFn = p.dispatchRSDone
	return p
}

// Reset re-arms the producer for another run over tr, reusing the frame
// arena and pending queues when their capacity allows. Handlers and hooks
// wired at construction persist. A reset producer has no started frames,
// so pooled runs match fresh ones.
//
//dvlint:hotpath runs once per reused run
func (p *Producer) Reset(tr *workload.Trace) {
	if tr.Len() == 0 {
		panic("pipeline: empty workload trace")
	}
	p.trace = tr
	n := tr.Len()
	if cap(p.arena) >= n {
		p.arena = p.arena[:n]
		p.startedIdx = p.startedIdx[:n]
	} else {
		//dvlint:ignore hotalloc arena grow path: paid only when a longer trace swaps into the runner
		p.arena = make([]buffer.Frame, n)
		//dvlint:ignore hotalloc same grow path as the arena above
		p.startedIdx = make([]bool, n)
	}
	clear(p.startedIdx)
	p.uiBusyUntil = 0
	p.rsBusyUntil = 0
	for i := range p.inflight {
		p.inflight[i] = nil
	}
	p.inflight = p.inflight[:0]
	for i := range p.uiPending {
		p.uiPending[i] = nil
	}
	p.uiPending = p.uiPending[:0]
	for i := range p.rsPending {
		p.rsPending[i] = rsEntry{}
	}
	p.rsPending = p.rsPending[:0]
	p.started = 0
	p.executed = 0
	p.overhead = 0
}

// dispatchUIDone completes the oldest pending UI stage.
func (p *Producer) dispatchUIDone(t simtime.Time) {
	f := p.uiPending[0]
	copy(p.uiPending, p.uiPending[1:])
	p.uiPending = p.uiPending[:len(p.uiPending)-1]
	if p.OnUIDone != nil {
		p.OnUIDone(t, f)
	}
}

// dispatchRSDone completes the oldest pending render stage and queues its
// buffer.
func (p *Producer) dispatchRSDone(t simtime.Time) {
	e := p.rsPending[0]
	copy(p.rsPending, p.rsPending[1:])
	p.rsPending = p.rsPending[:len(p.rsPending)-1]
	f := e.f
	f.QueuedAt = t
	// Remove from inflight (always the head: RS is FIFO because RSStart is
	// monotone in start order).
	if len(p.inflight) == 0 || p.inflight[0] != f {
		panic("pipeline: inflight order violated")
	}
	copy(p.inflight, p.inflight[1:])
	p.inflight = p.inflight[:len(p.inflight)-1]
	p.queue.Enqueue(e.b)
	if p.OnQueued != nil {
		p.OnQueued(t, f)
	}
}

// UIFree reports whether the UI thread is idle at now.
func (p *Producer) UIFree(now simtime.Time) bool { return p.uiBusyUntil <= now }

// RSFree reports whether the render-service stage is idle at now — the
// second per-stage occupancy signal the telemetry sampler reads.
func (p *Producer) RSFree(now simtime.Time) bool { return p.rsBusyUntil <= now }

// Ahead returns the number of frames rendered or rendering but not yet
// latched: the quantity the FPE limits and the DTV multiplies by the
// period.
func (p *Producer) Ahead() int { return p.queue.QueuedCount() + len(p.inflight) }

// Started returns how many frames have been started.
func (p *Producer) Started() int { return p.started }

// ExecutedWork returns total stage time executed.
func (p *Producer) ExecutedWork() simtime.Duration { return p.executed }

// OverheadWork returns total per-frame bookkeeping time charged.
func (p *Producer) OverheadWork() simtime.Duration { return p.overhead }

// TraceLen returns the workload length.
func (p *Producer) TraceLen() int { return p.trace.Len() }

// CostOf returns the workload cost of frame i.
func (p *Producer) CostOf(i int) workload.Cost { return p.trace.Costs[i] }

// Inflight returns the frames currently being rendered, oldest first. The
// returned slice is the producer's internal buffer; callers must not
// modify it.
func (p *Producer) Inflight() []*buffer.Frame { return p.inflight }

// OldestInflight returns the earliest frame still being rendered, or nil.
func (p *Producer) OldestInflight() *buffer.Frame {
	if len(p.inflight) == 0 {
		return nil
	}
	return p.inflight[0]
}

// Start begins executing frame req.Index at now. The caller must have
// verified UIFree and queue availability; Start panics otherwise, because a
// violated precondition means the driver logic is wrong.
func (p *Producer) Start(now simtime.Time, req StartRequest) *buffer.Frame {
	f := p.TryStart(now, req)
	if f == nil {
		panic(fmt.Sprintf("pipeline: start at %v with no free buffer", now))
	}
	return f
}

// TryStart is Start without the no-free-buffer panic: it returns nil when
// the queue refuses the dequeue (pool exhausted or an injected allocation
// fault), leaving all pipeline state untouched so the caller can retry at
// its next trigger. Stage-cost preconditions still panic.
//
//dvlint:hotpath runs once per produced frame
func (p *Producer) TryStart(now simtime.Time, req StartRequest) *buffer.Frame {
	if req.Index < 0 || req.Index >= p.trace.Len() {
		panic(fmt.Sprintf("pipeline: frame index %d out of range", req.Index))
	}
	if p.startedIdx[req.Index] {
		panic(fmt.Sprintf("pipeline: frame index %d started twice", req.Index))
	}
	if !p.UIFree(now) {
		panic(fmt.Sprintf("pipeline: start at %v while UI busy until %v", now, p.uiBusyUntil))
	}
	cost := p.trace.Costs[req.Index]
	if p.CostScale != nil {
		if s := p.CostScale(now); s != 1 {
			cost.UI = simtime.Duration(float64(cost.UI) * s)
			cost.RS = simtime.Duration(float64(cost.RS) * s)
		}
	}
	f := &p.arena[req.Index]
	*f = buffer.Frame{
		Seq:         req.Index,
		ContentTime: req.ContentTime,
		DTimestamp:  req.DTimestamp,
		Decoupled:   req.Decoupled,
		UIStart:     now,
		RateHz:      req.RateHz,
		UICost:      cost.UI,
		RSCost:      cost.RS,
	}
	b := p.queue.Dequeue(f)
	if b == nil {
		return nil
	}
	p.startedIdx[req.Index] = true

	f.UIDone = now.Add(cost.UI)
	p.uiBusyUntil = f.UIDone
	f.RSStart = simtime.Max(f.UIDone, p.rsBusyUntil)
	f.RSDone = f.RSStart.Add(cost.RS)
	p.rsBusyUntil = f.RSDone

	p.inflight = append(p.inflight, f)
	p.started++
	p.executed += cost.UI + cost.RS
	p.overhead += p.PerFrameOverhead

	p.engine.At(f.UIDone, event.PriorityPipeline, p.uiDoneFn)
	p.uiPending = append(p.uiPending, f)
	p.engine.At(f.RSDone, event.PriorityPipeline, p.rsDoneFn)
	p.rsPending = append(p.rsPending, rsEntry{f: f, b: b})
	return f
}
