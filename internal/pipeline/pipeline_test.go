package pipeline

import (
	"testing"

	"dvsync/internal/buffer"
	"dvsync/internal/event"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

func fixedTrace(n int, uiMs, rsMs float64) *workload.Trace {
	t := &workload.Trace{Name: "fixed"}
	for i := 0; i < n; i++ {
		t.Costs = append(t.Costs, workload.Cost{
			UI: simtime.FromMillis(uiMs),
			RS: simtime.FromMillis(rsMs),
		})
	}
	return t
}

func setup(n int, uiMs, rsMs float64, buffers int) (*event.Engine, *buffer.Queue, *Producer) {
	e := event.NewEngine()
	q := buffer.NewQueue(buffer.Config{Buffers: buffers, Width: 10, Height: 10})
	p := NewProducer(e, q, fixedTrace(n, uiMs, rsMs))
	return e, q, p
}

func TestStageTiming(t *testing.T) {
	e, _, p := setup(4, 2, 5, 4)
	f := p.Start(0, StartRequest{Index: 0, ContentTime: 0})
	if f.UIDone != simtime.Time(simtime.FromMillis(2)) {
		t.Errorf("UIDone = %v", f.UIDone)
	}
	if f.RSStart != f.UIDone {
		t.Errorf("RSStart = %v, want UIDone", f.RSStart)
	}
	if f.RSDone != simtime.Time(simtime.FromMillis(7)) {
		t.Errorf("RSDone = %v", f.RSDone)
	}
	e.Run(simtime.Never)
	if f.QueuedAt != f.RSDone {
		t.Errorf("QueuedAt = %v, want %v", f.QueuedAt, f.RSDone)
	}
}

func TestPipelinedStages(t *testing.T) {
	// Frame 1's UI runs while frame 0's RS is busy; frame 1's RS waits for
	// the RS thread (§2's parallel rendering of consecutive frames).
	e, _, p := setup(4, 2, 10, 4)
	f0 := p.Start(0, StartRequest{Index: 0})
	e.Run(f0.UIDone) // advance to UI-done so the thread is free
	f1 := p.Start(f0.UIDone, StartRequest{Index: 1})
	if f1.UIStart != f0.UIDone {
		t.Errorf("UI not pipelined: %v", f1.UIStart)
	}
	if f1.RSStart != f0.RSDone {
		t.Errorf("RS must serialise: RSStart %v, want %v", f1.RSStart, f0.RSDone)
	}
}

func TestCallbacks(t *testing.T) {
	e, q, p := setup(2, 1, 2, 3)
	var uiDone, queued []int
	p.OnUIDone = func(_ simtime.Time, f *buffer.Frame) { uiDone = append(uiDone, f.Seq) }
	p.OnQueued = func(_ simtime.Time, f *buffer.Frame) { queued = append(queued, f.Seq) }
	p.Start(0, StartRequest{Index: 0})
	e.Run(simtime.Never)
	if len(uiDone) != 1 || uiDone[0] != 0 {
		t.Errorf("uiDone = %v", uiDone)
	}
	if len(queued) != 1 || queued[0] != 0 {
		t.Errorf("queued = %v", queued)
	}
	if q.QueuedCount() != 1 {
		t.Errorf("queue holds %d", q.QueuedCount())
	}
}

func TestAheadAccounting(t *testing.T) {
	e, q, p := setup(3, 1, 4, 4)
	if p.Ahead() != 0 {
		t.Fatal("fresh producer should have 0 ahead")
	}
	p.Start(0, StartRequest{Index: 0})
	if p.Ahead() != 1 {
		t.Errorf("ahead = %d after start", p.Ahead())
	}
	e.Run(simtime.Never) // frame queues
	if p.Ahead() != 1 {
		t.Errorf("ahead = %d after queue (still undisplayed)", p.Ahead())
	}
	q.Latch(100, 1000)
	if p.Ahead() != 0 {
		t.Errorf("ahead = %d after latch", p.Ahead())
	}
}

func TestWorkAccounting(t *testing.T) {
	e, _, p := setup(3, 2, 3, 4)
	p.PerFrameOverhead = simtime.FromMicros(100)
	p.Start(0, StartRequest{Index: 0})
	e.Run(simtime.Never)
	p.Start(e.Now(), StartRequest{Index: 1})
	e.Run(simtime.Never)
	if got := p.ExecutedWork(); got != simtime.FromMillis(10) {
		t.Errorf("executed = %v", got)
	}
	if got := p.OverheadWork(); got != simtime.FromMicros(200) {
		t.Errorf("overhead = %v", got)
	}
	if p.Started() != 2 {
		t.Errorf("started = %d", p.Started())
	}
}

func TestStartPreconditionsPanic(t *testing.T) {
	_, _, p := setup(2, 5, 5, 3)
	p.Start(0, StartRequest{Index: 0})
	for name, fn := range map[string]func(){
		"ui busy":   func() { p.Start(1, StartRequest{Index: 1}) },
		"bad index": func() { p.Start(simtime.Time(simtime.Second), StartRequest{Index: 99}) },
		"neg index": func() { p.Start(simtime.Time(simtime.Second), StartRequest{Index: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInflightOrder(t *testing.T) {
	e, _, p := setup(3, 1, 20, 5)
	p.Start(0, StartRequest{Index: 0})
	e.Run(simtime.Time(simtime.FromMillis(1)))
	p.Start(e.Now(), StartRequest{Index: 1})
	e.Run(simtime.Time(simtime.FromMillis(2)))
	p.Start(e.Now(), StartRequest{Index: 2})
	fl := p.Inflight()
	if len(fl) != 3 {
		t.Fatalf("inflight = %d", len(fl))
	}
	for i, f := range fl {
		if f.Seq != i {
			t.Fatalf("inflight order %v", fl)
		}
	}
	if p.OldestInflight().Seq != 0 {
		t.Error("oldest inflight wrong")
	}
}

func TestFrameMetadata(t *testing.T) {
	_, _, p := setup(2, 1, 1, 3)
	f := p.Start(0, StartRequest{
		Index: 0, ContentTime: 123, DTimestamp: 456, Decoupled: true, RateHz: 90,
	})
	if f.ContentTime != 123 || f.DTimestamp != 456 || !f.Decoupled || f.RateHz != 90 {
		t.Errorf("metadata not propagated: %+v", f)
	}
	if p.CostOf(0).UI != simtime.FromMillis(1) {
		t.Error("CostOf wrong")
	}
	if p.TraceLen() != 2 {
		t.Error("TraceLen wrong")
	}
}
