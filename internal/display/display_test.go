package display

import (
	"testing"

	"dvsync/internal/event"
	"dvsync/internal/simtime"
)

func TestEdgesAtNominalPeriod(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{Name: "t", RefreshHz: 60})
	var edges []simtime.Time
	p.OnEdge(func(now simtime.Time, seq uint64, period simtime.Duration) {
		edges = append(edges, now)
		if period != simtime.PeriodForHz(60) {
			t.Errorf("period = %v", period)
		}
	})
	p.Start(0)
	e.Run(simtime.Time(simtime.FromMillis(50)))
	want := []simtime.Time{0, 16666666, 33333332}
	if len(edges) < 3 {
		t.Fatalf("edges %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges %v, want prefix %v", edges[:3], want)
		}
	}
}

func TestListenersFireInOrder(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 120})
	var order []int
	p.OnEdge(func(simtime.Time, uint64, simtime.Duration) { order = append(order, 1) })
	p.OnEdge(func(simtime.Time, uint64, simtime.Duration) { order = append(order, 2) })
	p.Start(0)
	e.Run(1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order %v", order)
	}
}

// TestStopHaltsEdges: an edge listener ends the stream by stopping the
// engine, as the simulator's consumer does after its last latch.
func TestStopHaltsEdges(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 60})
	count := 0
	p.OnEdge(func(simtime.Time, uint64, simtime.Duration) {
		count++
		if count == 2 {
			e.Stop()
		}
	})
	p.Start(0)
	e.RunAll()
	if count != 2 {
		t.Errorf("edges after stop: %d", count)
	}
}

func TestJitterBoundedAndMonotonic(t *testing.T) {
	e := event.NewEngine()
	sd := simtime.FromMicros(100)
	p := NewPanel(e, Config{RefreshHz: 120, JitterStdDev: sd, JitterSeed: 3})
	var prev simtime.Time = -1
	period := simtime.PeriodForHz(120)
	n := 0
	p.OnEdge(func(now simtime.Time, seq uint64, _ simtime.Duration) {
		if now <= prev {
			t.Fatalf("edge %d not after previous: %v <= %v", seq, now, prev)
		}
		nominal := simtime.Time(int64(seq) * int64(period))
		dev := now.Sub(nominal)
		if dev < -3*sd-1 || dev > 3*sd+1 {
			t.Fatalf("edge %d deviates %v from nominal", seq, dev)
		}
		prev = now
		n++
	})
	p.Start(0)
	e.Run(simtime.Time(simtime.FromMillis(500)))
	if n < 50 {
		t.Fatalf("only %d edges", n)
	}
}

func TestPeriodSkew(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 60, PeriodSkewPPM: 10000}) // 1 % slow
	var last simtime.Time
	var n int
	p.OnEdge(func(now simtime.Time, _ uint64, _ simtime.Duration) { last, n = now, n+1 })
	p.Start(0)
	e.Run(simtime.Time(simtime.Second))
	meanPeriod := float64(last) / float64(n-1)
	want := float64(simtime.PeriodForHz(60)) * 1.01
	if meanPeriod < want*0.999 || meanPeriod > want*1.001 {
		t.Errorf("mean period %v, want ≈%v", meanPeriod, want)
	}
	// Software still sees the nominal period.
	if p.Period() != simtime.PeriodForHz(60) {
		t.Errorf("nominal period changed: %v", p.Period())
	}
}

func TestSetRefreshHz(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 120})
	var deltas []simtime.Duration
	var prev simtime.Time = -1
	p.OnEdge(func(now simtime.Time, seq uint64, _ simtime.Duration) {
		if prev >= 0 {
			deltas = append(deltas, now.Sub(prev))
		}
		prev = now
		if seq == 3 {
			p.SetRefreshHz(60)
		}
	})
	p.Start(0)
	e.Run(simtime.Time(simtime.FromMillis(120)))
	p120, p60 := simtime.PeriodForHz(120), simtime.PeriodForHz(60)
	if deltas[0] != p120 || deltas[2] != p120 {
		t.Errorf("early deltas %v, want %v", deltas[:3], p120)
	}
	if deltas[len(deltas)-1] != p60 {
		t.Errorf("late delta %v, want %v", deltas[len(deltas)-1], p60)
	}
	if p.RefreshHz() != 60 {
		t.Errorf("RefreshHz = %d", p.RefreshHz())
	}
}

func TestNextEdgeAfter(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 60})
	period := simtime.PeriodForHz(60)
	p.OnEdge(func(now simtime.Time, seq uint64, _ simtime.Duration) {
		if seq == 2 {
			next := p.NextEdgeAfter(now)
			if next != now.Add(period) {
				t.Errorf("NextEdgeAfter(edge) = %v, want %v", next, now.Add(period))
			}
			mid := p.NextEdgeAfter(now.Add(period / 2))
			if mid != now.Add(period) {
				t.Errorf("NextEdgeAfter(mid) = %v, want %v", mid, now.Add(period))
			}
		}
	})
	p.Start(0)
	e.Run(simtime.Time(simtime.FromMillis(60)))
}

func TestPixelsPerSecond(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{Name: "Mate 60 Pro", RefreshHz: 120, Width: 1260, Height: 2720})
	want := int64(1260) * 2720 * 120
	if p.PixelsPerSecond() != want {
		t.Errorf("PixelsPerSecond = %d, want %d", p.PixelsPerSecond(), want)
	}
	if p.Name() != "Mate 60 Pro" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestNextEdgeAfterStopped(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 60})
	if got := p.NextEdgeAfter(0); got != simtime.Never {
		t.Errorf("stopped panel NextEdgeAfter = %v, want Never", got)
	}
}

// TestResetDropsPendingEdge: a stopped run leaves the panel's next edge
// on the agenda; the engine's Reset drops it and the panel's Reset stops
// the panel, so a reused panel starts again from edge 0 without a stale
// edge firing.
func TestResetDropsPendingEdge(t *testing.T) {
	e := event.NewEngine()
	p := NewPanel(e, Config{RefreshHz: 60})
	var seqs []uint64
	p.OnEdge(func(_ simtime.Time, seq uint64, _ simtime.Duration) {
		seqs = append(seqs, seq)
		if seq == 1 {
			e.Stop()
		}
	})
	p.Start(0)
	e.RunAll()
	if e.Pending() != 1 {
		t.Fatalf("%d events pending after the stop, want the next edge", e.Pending())
	}
	e.Reset()
	p.Reset()
	e.RunAll()
	if p.Edges() != 0 || len(seqs) != 2 {
		t.Fatalf("edges fired after reset: %d, seqs %v", p.Edges(), seqs)
	}
	p.Start(0)
	e.RunAll()
	if len(seqs) != 4 || seqs[2] != 0 || seqs[3] != 1 {
		t.Errorf("edge sequence %v, want [0 1 0 1]", seqs)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	e := event.NewEngine()
	for name, fn := range map[string]func(){
		"zero rate":    func() { NewPanel(e, Config{RefreshHz: 0}) },
		"double start": func() { p := NewPanel(e, Config{RefreshHz: 60}); p.Start(0); p.Start(1) },
		"bad set rate": func() { p := NewPanel(e, Config{RefreshHz: 60}); p.SetRefreshHz(0) },
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

// TestZeroJitterPanelSeedsNoSource: a panel without jitter never draws
// from its stream, and streams build their math/rand source on the first
// draw, so wiring and running such a panel seeds none — one allocation
// fewer than a panel whose stream has drawn.
func TestZeroJitterPanelSeedsNoSource(t *testing.T) {
	e := event.NewEngine()
	cfg := Config{Name: "t", RefreshHz: 60}
	quiet := testing.AllocsPerRun(20, func() { NewPanel(e, cfg) })
	drawn := testing.AllocsPerRun(20, func() { NewPanel(e, cfg).rng.NormFloat64() })
	if quiet != drawn-1 {
		t.Errorf("NewPanel allocates %v, %v once its stream draws: want exactly one fewer", quiet, drawn)
	}
	p := NewPanel(e, cfg)
	p.Start(0)
	e.Run(simtime.Time(simtime.FromMillis(100)))
	if p.Edges() == 0 || p.rng.Draws() != 0 {
		t.Errorf("zero-jitter panel fired %d edges and drew %d values, want edges and no draw",
			p.Edges(), p.rng.Draws())
	}
}
