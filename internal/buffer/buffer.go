// Package buffer models the frame buffers and the BufferQueue that connect
// the rendering pipeline (producer) to the display (consumer).
//
// The queue follows the Android/OpenHarmony BufferQueue contract described
// in §2 of the paper: a fixed pool of buffers cycles through the states
// Free → Dequeued (being rendered) → Queued (awaiting display) → Front (on
// screen) → Free. One front buffer feeds the panel while the back buffers
// absorb rendering; VSync enlarges the pool to 3 (triple buffering, Android)
// or 4 (OpenHarmony), and D-VSync enlarges it further so pre-rendered frames
// can accumulate (§4.1).
package buffer

import (
	"fmt"

	"dvsync/internal/simtime"
)

// State is the lifecycle state of a buffer.
type State int

// Buffer lifecycle states.
const (
	// Free means the buffer is available for the producer to dequeue.
	Free State = iota
	// Dequeued means the producer is rendering into the buffer.
	Dequeued
	// Queued means rendering finished and the buffer awaits display.
	Queued
	// Front means the buffer is currently latched/displayed by the panel.
	Front
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Dequeued:
		return "dequeued"
	case Queued:
		return "queued"
	case Front:
		return "front"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Frame carries the metadata of one rendered frame through the pipeline.
// All timestamps are on the simulation clock; zero means "not yet".
type Frame struct {
	// Seq is the frame's index in its stream, starting at 0.
	Seq int
	// ContentTime is the timestamp the frame's content represents: the
	// VSync-app tick under VSync, the D-Timestamp under D-VSync.
	ContentTime simtime.Time
	// DTimestamp is the display time predicted by the DTV when the frame
	// was triggered (zero on the VSync path).
	DTimestamp simtime.Time
	// Decoupled records whether the frame was produced by FPE
	// pre-execution rather than a display VSync trigger.
	Decoupled bool
	// UIStart/UIDone bound the app UI-thread stage.
	UIStart, UIDone simtime.Time
	// RSStart/RSDone bound the render-service/render-thread stage.
	RSStart, RSDone simtime.Time
	// QueuedAt is when the rendered buffer entered the queue (== RSDone).
	QueuedAt simtime.Time
	// LatchedAt is the VSync edge at which the compositor latched the
	// buffer.
	LatchedAt simtime.Time
	// PresentAt is when the frame became visible (latch edge + 1 period,
	// the present fence).
	PresentAt simtime.Time
	// RateHz is the refresh rate the frame was produced for (LTPO §5.3).
	RateHz int
	// ContentValue is the sampled content state (animation progress or
	// predicted input position) the frame rendered, for correctness and
	// latency-ball experiments.
	ContentValue float64
	// UICost and RSCost are the stage execution durations.
	UICost, RSCost simtime.Duration
}

// QueueWait returns how long the frame sat in the queue before latch.
func (f *Frame) QueueWait() simtime.Duration { return f.LatchedAt.Sub(f.QueuedAt) }

// Buffer is one graphics buffer in the pool.
type Buffer struct {
	// Slot is the buffer's fixed index in the pool.
	Slot int
	// State is the current lifecycle state.
	State State
	// Frame is the metadata of the frame currently occupying the buffer
	// (valid in Dequeued, Queued and Front states).
	Frame *Frame
}

// Config sizes a Queue.
type Config struct {
	// Buffers is the total pool size including the front buffer. Android
	// triple buffering is 3; OpenHarmony's default is 4; D-VSync raises it
	// further (Figure 11 evaluates 4, 5 and 7).
	Buffers int
	// Width and Height size the memory model (RGBA8888, 4 bytes/pixel).
	Width, Height int
}

// Queue is the FIFO producer/consumer buffer queue.
//
// Queue is not safe for concurrent use: the discrete-event simulation is
// single-threaded by design.
type Queue struct {
	cfg    Config
	pool   []*Buffer
	free   []*Buffer // LIFO of free buffers
	queued []*Buffer // FIFO of queued buffers
	front  *Buffer   // currently displayed, nil before first latch

	allocFault func() bool
	onDepth    func(depth int)

	stats Stats
}

// Stats aggregates queue-level counters.
type Stats struct {
	// Dequeued counts producer acquisitions.
	Dequeued int
	// QueuedTotal counts buffers submitted by the producer.
	QueuedTotal int
	// Latched counts buffers consumed by the display.
	Latched int
	// Direct and Stuffed split latched frames per Figure 6.
	Direct, Stuffed int
	// MaxDepth is the maximum number of simultaneously queued buffers.
	MaxDepth int
	// AllocFailed counts dequeues refused by an injected allocation fault.
	AllocFailed int
	// TotalQueueWait accumulates time buffers spent queued.
	TotalQueueWait simtime.Duration
}

// NewQueue builds a queue with cfg.Buffers free buffers.
func NewQueue(cfg Config) *Queue {
	if cfg.Buffers < 2 {
		panic(fmt.Sprintf("buffer: pool of %d buffers cannot double-buffer", cfg.Buffers))
	}
	if cfg.Width <= 0 || cfg.Height <= 0 {
		cfg.Width, cfg.Height = 1080, 2340 // Pixel 5 panel, Table 1
	}
	q := &Queue{cfg: cfg}
	for i := 0; i < cfg.Buffers; i++ {
		b := &Buffer{Slot: i, State: Free}
		q.pool = append(q.pool, b)
		q.free = append(q.free, b)
	}
	return q
}

// Capacity returns the total pool size.
func (q *Queue) Capacity() int { return q.cfg.Buffers }

// FreeCount returns the number of buffers available to the producer.
func (q *Queue) FreeCount() int { return len(q.free) }

// QueuedCount returns the number of rendered buffers awaiting display.
func (q *Queue) QueuedCount() int { return len(q.queued) }

// Front returns the buffer currently on screen, or nil.
func (q *Queue) Front() *Buffer { return q.front }

// Stats returns a copy of the accumulated counters.
func (q *Queue) Stats() Stats { return q.stats }

// BufferBytes returns the memory footprint of a single RGBA8888 buffer.
func (q *Queue) BufferBytes() int64 {
	return int64(q.cfg.Width) * int64(q.cfg.Height) * 4
}

// MemoryBytes returns the total memory footprint of the pool (§6.4).
func (q *Queue) MemoryBytes() int64 {
	return q.BufferBytes() * int64(q.cfg.Buffers)
}

// CanDequeue reports whether a free buffer is available.
func (q *Queue) CanDequeue() bool { return len(q.free) > 0 }

// SetAllocFault installs a transient allocation-failure hook (internal/
// fault). When the hook returns true a Dequeue is refused as if the pool
// were exhausted; the producer retries at its next opportunity, so a fault
// never leaks or corrupts a buffer.
func (q *Queue) SetAllocFault(fn func() bool) { q.allocFault = fn }

// SetDepthObserver installs a hook invoked with the new queued-buffer
// count after every enqueue and latch (a stale-dropping latch reports the
// final depth once) — the telemetry layer's queue-depth feed. Nil-guarded
// on the hot path: no cost when unset.
func (q *Queue) SetDepthObserver(fn func(depth int)) { q.onDepth = fn }

func (q *Queue) notifyDepth() {
	if q.onDepth != nil {
		q.onDepth(len(q.queued))
	}
}

// Dequeue hands a free buffer to the producer. It returns nil when the pool
// is exhausted (the producer must wait for OnRelease) or when an injected
// allocation fault refuses the request.
func (q *Queue) Dequeue(f *Frame) *Buffer {
	if len(q.free) == 0 {
		return nil
	}
	if q.allocFault != nil && q.allocFault() {
		q.stats.AllocFailed++
		return nil
	}
	b := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	b.State = Dequeued
	b.Frame = f
	q.stats.Dequeued++
	return b
}

// Enqueue submits a rendered buffer for display. The frame's QueuedAt must
// be set by the caller.
func (q *Queue) Enqueue(b *Buffer) {
	if b.State != Dequeued {
		panic(fmt.Sprintf("buffer: enqueue of %v buffer", b.State))
	}
	b.State = Queued
	q.queued = append(q.queued, b)
	q.stats.QueuedTotal++
	if d := len(q.queued); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	q.notifyDepth()
}

// Reset returns every buffer to the free list in construction order (slots
// 0..n−1, so a reused queue hands out the same dequeue sequence as a fresh
// one), clears the queued FIFO and the front buffer, and zeroes the stats.
// Hooks installed at wiring time persist.
func (q *Queue) Reset() {
	q.free = q.free[:0]
	for _, b := range q.pool {
		b.State = Free
		b.Frame = nil
		q.free = append(q.free, b)
	}
	for i := range q.queued {
		q.queued[i] = nil
	}
	q.queued = q.queued[:0]
	q.front = nil
	q.stats = Stats{}
}

// Latch is called by the display at a VSync edge. It takes the oldest
// queued buffer, makes it the front buffer, and frees the previous front.
// It returns nil when the queue is empty (the edge repeats the old frame —
// a jank if an update was due).
//
// period is the current refresh period, used to classify the latch as
// direct composition or buffer stuffing for the Figure 6 breakdown.
func (q *Queue) Latch(now simtime.Time, period simtime.Duration) *Buffer {
	if len(q.queued) == 0 {
		return nil
	}
	b := q.queued[0]
	copy(q.queued, q.queued[1:])
	q.queued = q.queued[:len(q.queued)-1]

	if q.front != nil {
		q.front.State = Free
		q.front.Frame = nil
		q.free = append(q.free, q.front)
	}
	b.State = Front
	q.front = b
	b.Frame.LatchedAt = now

	q.stats.Latched++
	wait := b.Frame.QueueWait()
	q.stats.TotalQueueWait += wait
	// A buffer queued during the immediately preceding period is latched at
	// the first opportunity: direct composition. Anything that waited a
	// full period or more behind other buffers was stuffed.
	if wait >= period {
		q.stats.Stuffed++
	} else {
		q.stats.Direct++
	}
	q.notifyDepth()
	return b
}

// LatchNewest is the stale-dropping consumer variant: at a VSync edge it
// discards every queued buffer except the newest and latches that one.
// Modern SurfaceFlinger does this opportunistically to trim latency after
// backlog episodes, at the cost of throwing away rendered frames. It
// returns the latched buffer (nil when the queue is empty) and the number
// of stale buffers dropped.
func (q *Queue) LatchNewest(now simtime.Time, period simtime.Duration) (*Buffer, int) {
	dropped := 0
	for len(q.queued) > 1 {
		b := q.queued[0]
		copy(q.queued, q.queued[1:])
		q.queued = q.queued[:len(q.queued)-1]
		b.State = Free
		b.Frame = nil
		q.free = append(q.free, b)
		dropped++
	}
	return q.Latch(now, period), dropped
}

// PeekQueued returns the i-th oldest queued buffer without removing it.
func (q *Queue) PeekQueued(i int) *Buffer {
	if i < 0 || i >= len(q.queued) {
		return nil
	}
	return q.queued[i]
}

// CheckInvariants validates the conservation invariant: every pool slot is
// in exactly one of free/queued/front/dequeued. It returns an error rather
// than panicking so property tests can report it.
func (q *Queue) CheckInvariants() error {
	seen := make(map[int]State, len(q.pool))
	for _, b := range q.free {
		if b.State != Free {
			return fmt.Errorf("buffer %d on free list in state %v", b.Slot, b.State)
		}
		if _, dup := seen[b.Slot]; dup {
			return fmt.Errorf("buffer %d appears twice", b.Slot)
		}
		seen[b.Slot] = Free
	}
	for _, b := range q.queued {
		if b.State != Queued {
			return fmt.Errorf("buffer %d on queued list in state %v", b.Slot, b.State)
		}
		if _, dup := seen[b.Slot]; dup {
			return fmt.Errorf("buffer %d appears twice", b.Slot)
		}
		seen[b.Slot] = Queued
	}
	if q.front != nil {
		if q.front.State != Front {
			return fmt.Errorf("front buffer %d in state %v", q.front.Slot, q.front.State)
		}
		if _, dup := seen[q.front.Slot]; dup {
			return fmt.Errorf("buffer %d appears twice", q.front.Slot)
		}
		seen[q.front.Slot] = Front
	}
	dequeued := 0
	for _, b := range q.pool {
		if _, ok := seen[b.Slot]; !ok {
			if b.State != Dequeued {
				return fmt.Errorf("unaccounted buffer %d in state %v", b.Slot, b.State)
			}
			dequeued++
		}
	}
	if len(q.free)+len(q.queued)+dequeued+frontCount(q) != len(q.pool) {
		return fmt.Errorf("conservation violated: free=%d queued=%d dequeued=%d front=%d pool=%d",
			len(q.free), len(q.queued), dequeued, frontCount(q), len(q.pool))
	}
	return nil
}

func frontCount(q *Queue) int {
	if q.front != nil {
		return 1
	}
	return 0
}
