package buffer

import (
	"testing"
	"testing/quick"

	"dvsync/internal/simtime"
)

func newTestQueue(n int) *Queue {
	return NewQueue(Config{Buffers: n, Width: 100, Height: 100})
}

func TestNewQueueAllFree(t *testing.T) {
	q := newTestQueue(4)
	if q.FreeCount() != 4 || q.QueuedCount() != 0 || q.Front() != nil {
		t.Fatalf("fresh queue: free=%d queued=%d front=%v", q.FreeCount(), q.QueuedCount(), q.Front())
	}
	if q.Capacity() != 4 {
		t.Errorf("capacity = %d", q.Capacity())
	}
}

func TestNewQueueRejectsSingleBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-buffer pool")
		}
	}()
	newTestQueue(1)
}

func TestDequeueEnqueueLatchCycle(t *testing.T) {
	q := newTestQueue(3)
	period := simtime.FromMillis(16.667)

	f := &Frame{Seq: 0}
	b := q.Dequeue(f)
	if b == nil || b.State != Dequeued {
		t.Fatal("dequeue failed")
	}
	if q.FreeCount() != 2 {
		t.Errorf("free = %d after dequeue", q.FreeCount())
	}
	f.QueuedAt = 5
	q.Enqueue(b)
	if b.State != Queued || q.QueuedCount() != 1 {
		t.Fatal("enqueue failed")
	}
	got := q.Latch(10, period)
	if got != b || b.State != Front || q.Front() != b {
		t.Fatal("latch failed")
	}
	if f.LatchedAt != 10 {
		t.Errorf("LatchedAt = %v", f.LatchedAt)
	}
	// Second frame replaces the front; the old front returns to free.
	f2 := &Frame{Seq: 1}
	b2 := q.Dequeue(f2)
	f2.QueuedAt = 15
	q.Enqueue(b2)
	q.Latch(20, period)
	if b.State != Free {
		t.Errorf("old front state = %v, want free", b.State)
	}
	if q.FreeCount() != 2 {
		t.Errorf("free = %d", q.FreeCount())
	}
}

func TestDequeueExhaustion(t *testing.T) {
	q := newTestQueue(2)
	if q.Dequeue(&Frame{}) == nil || q.Dequeue(&Frame{}) == nil {
		t.Fatal("first two dequeues should succeed")
	}
	if q.Dequeue(&Frame{}) != nil {
		t.Fatal("third dequeue should fail")
	}
	if q.CanDequeue() {
		t.Error("CanDequeue should be false")
	}
}

func TestLatchEmptyReturnsNil(t *testing.T) {
	q := newTestQueue(3)
	if q.Latch(0, 1000) != nil {
		t.Fatal("latch of empty queue should return nil")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := newTestQueue(5)
	period := simtime.Duration(10)
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f := &Frame{Seq: i, QueuedAt: simtime.Time(i)}
		frames = append(frames, f)
		b := q.Dequeue(f)
		q.Enqueue(b)
	}
	for i := 0; i < 4; i++ {
		b := q.Latch(simtime.Time(100+10*i), period)
		if b.Frame.Seq != i {
			t.Fatalf("latch %d returned frame %d", i, b.Frame.Seq)
		}
	}
}

func TestStuffingClassification(t *testing.T) {
	q := newTestQueue(4)
	period := simtime.FromMillis(10)
	// Frame A queued at t=1ms, latched at t=10ms: wait 9ms < period → direct.
	fa := &Frame{Seq: 0, QueuedAt: simtime.Time(simtime.FromMillis(1))}
	ba := q.Dequeue(fa)
	q.Enqueue(ba)
	// Frame B queued at t=2ms, latched at t=20ms: wait 18ms ≥ period → stuffed.
	fb := &Frame{Seq: 1, QueuedAt: simtime.Time(simtime.FromMillis(2))}
	bb := q.Dequeue(fb)
	q.Enqueue(bb)

	q.Latch(simtime.Time(simtime.FromMillis(10)), period)
	q.Latch(simtime.Time(simtime.FromMillis(20)), period)
	st := q.Stats()
	if st.Direct != 1 || st.Stuffed != 1 {
		t.Errorf("direct=%d stuffed=%d, want 1/1", st.Direct, st.Stuffed)
	}
	if CompositionOf(fa, period) != DirectComposition {
		t.Error("frame A should be direct")
	}
	if CompositionOf(fb, period) != BufferStuffing {
		t.Error("frame B should be stuffed")
	}
}

func TestMemoryModel(t *testing.T) {
	q := NewQueue(Config{Buffers: 4, Width: 1080, Height: 2340})
	if q.BufferBytes() != 1080*2340*4 {
		t.Errorf("BufferBytes = %d", q.BufferBytes())
	}
	if q.MemoryBytes() != 1080*2340*4*4 {
		t.Errorf("MemoryBytes = %d", q.MemoryBytes())
	}
}

func TestMaxDepthStat(t *testing.T) {
	q := newTestQueue(5)
	for i := 0; i < 4; i++ {
		b := q.Dequeue(&Frame{Seq: i})
		q.Enqueue(b)
	}
	if q.Stats().MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", q.Stats().MaxDepth)
	}
}

func TestEnqueueWrongStatePanics(t *testing.T) {
	q := newTestQueue(3)
	b := q.Dequeue(&Frame{})
	q.Enqueue(b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic enqueueing a queued buffer")
		}
	}()
	q.Enqueue(b)
}

func TestPeekQueued(t *testing.T) {
	q := newTestQueue(4)
	for i := 0; i < 2; i++ {
		b := q.Dequeue(&Frame{Seq: i})
		q.Enqueue(b)
	}
	if q.PeekQueued(0).Frame.Seq != 0 || q.PeekQueued(1).Frame.Seq != 1 {
		t.Error("peek order wrong")
	}
	if q.PeekQueued(2) != nil || q.PeekQueued(-1) != nil {
		t.Error("out-of-range peek should be nil")
	}
}

// Property: any random sequence of dequeue/enqueue/latch operations
// preserves buffer conservation and FIFO latch order.
func TestQueueInvariantsProperty(t *testing.T) {
	f := func(ops []uint8, size uint8) bool {
		n := int(size%6) + 2
		q := newTestQueue(n)
		var dequeued []*Buffer
		seq := 0
		now := simtime.Time(0)
		lastLatched := -1
		for _, op := range ops {
			now += 1000
			switch op % 3 {
			case 0: // dequeue
				f := &Frame{Seq: seq}
				if b := q.Dequeue(f); b != nil {
					seq++
					dequeued = append(dequeued, b)
				}
			case 1: // enqueue oldest dequeued
				if len(dequeued) > 0 {
					b := dequeued[0]
					dequeued = dequeued[1:]
					b.Frame.QueuedAt = now
					q.Enqueue(b)
				}
			case 2: // latch
				if b := q.Latch(now, 1000); b != nil {
					if b.Frame.Seq <= lastLatched {
						return false // FIFO violated
					}
					lastLatched = b.Frame.Seq
				}
			}
			if err := q.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Free: "free", Dequeued: "dequeued", Queued: "queued", Front: "front"} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
	if DirectComposition.String() != "direct composition" || BufferStuffing.String() != "buffer stuffing" {
		t.Error("CompositionKind strings wrong")
	}
}

func TestLatchNewestDropsStale(t *testing.T) {
	q := newTestQueue(5)
	period := simtime.FromMillis(10)
	for i := 0; i < 3; i++ {
		f := &Frame{Seq: i, QueuedAt: simtime.Time(i)}
		q.Enqueue(q.Dequeue(f))
	}
	b, dropped := q.LatchNewest(simtime.Time(simtime.FromMillis(30)), period)
	if b == nil || b.Frame.Seq != 2 {
		t.Fatalf("latched %+v, want newest (seq 2)", b)
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if q.QueuedCount() != 0 {
		t.Errorf("queued = %d after latch-newest", q.QueuedCount())
	}
	// Discarded buffers are free again.
	if q.FreeCount() != 4 {
		t.Errorf("free = %d, want 4 (pool 5, one front)", q.FreeCount())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLatchNewestEmptyAndSingle(t *testing.T) {
	q := newTestQueue(3)
	if b, dropped := q.LatchNewest(0, 1000); b != nil || dropped != 0 {
		t.Error("empty latch-newest should be a no-op")
	}
	f := &Frame{Seq: 0, QueuedAt: 0}
	q.Enqueue(q.Dequeue(f))
	b, dropped := q.LatchNewest(10, 1000)
	if b == nil || dropped != 0 {
		t.Errorf("single-buffer latch-newest: b=%v dropped=%d", b, dropped)
	}
}

// TestConservationUnderAllocFaultStream drives random operation streams
// through a queue whose allocation hook fails on a scripted byte pattern,
// checking the conservation invariant after every single operation. The
// op stream and fault stream both come from testing/quick, so the search
// covers interleavings a hand-written test would not.
func TestConservationUnderAllocFaultStream(t *testing.T) {
	prop := func(ops []uint8, faults []uint8) bool {
		q := newTestQueue(4)
		fi := 0
		q.SetAllocFault(func() bool {
			if len(faults) == 0 {
				return false
			}
			v := faults[fi%len(faults)]
			fi++
			return v%3 == 0 // fail roughly a third of allocations
		})
		var now simtime.Time
		var dequeued []*Buffer
		seq := 0
		for _, op := range ops {
			now = now.Add(simtime.FromMillis(1))
			switch op % 3 {
			case 0: // dequeue
				f := &Frame{Seq: seq}
				if b := q.Dequeue(f); b != nil {
					seq++
					dequeued = append(dequeued, b)
				}
			case 1: // enqueue the oldest dequeued buffer
				if len(dequeued) > 0 {
					b := dequeued[0]
					dequeued = dequeued[1:]
					b.Frame.QueuedAt = now
					q.Enqueue(b)
				}
			case 2: // latch
				q.Latch(now, simtime.FromMillis(16))
			}
			if err := q.CheckInvariants(); err != nil {
				t.Logf("after op %d: %v", op, err)
				return false
			}
		}
		// Nothing leaked: accounted slots equal the pool.
		return q.FreeCount()+q.QueuedCount()+len(dequeued)+frontCount(q) == q.Capacity()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllocFaultCountsAndRefuses(t *testing.T) {
	q := newTestQueue(3)
	fail := true
	q.SetAllocFault(func() bool { return fail })
	if b := q.Dequeue(&Frame{}); b != nil {
		t.Fatal("faulted dequeue returned a buffer")
	}
	if q.Stats().AllocFailed != 1 || q.Stats().Dequeued != 0 {
		t.Fatalf("stats = %+v", q.Stats())
	}
	if q.FreeCount() != 3 {
		t.Fatalf("free = %d after refused dequeue, want 3", q.FreeCount())
	}
	fail = false
	if b := q.Dequeue(&Frame{}); b == nil {
		t.Fatal("dequeue refused after fault cleared")
	}
	// Exhaustion is reported as exhaustion, not as an allocation fault:
	// drain the pool fault-free, then fault the hook — an empty pool never
	// reaches it.
	q.Dequeue(&Frame{})
	q.Dequeue(&Frame{})
	fail = true
	failedBefore := q.Stats().AllocFailed
	if b := q.Dequeue(&Frame{}); b != nil {
		t.Fatal("dequeue from exhausted pool")
	}
	if q.Stats().AllocFailed != failedBefore {
		t.Fatal("pool exhaustion miscounted as an allocation fault")
	}
}
