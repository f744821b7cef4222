package par_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"dvsync/internal/par"
)

// withWorkers pins the budget for one test and restores the default after.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// job is a small deterministic computation whose value depends only on the
// job index and seed — the contract every par.Map job must satisfy.
func job(seed int64, i int) int64 {
	s := seed + int64(i)
	for k := 0; k < 1000; k++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	return s
}

func TestMapOrderAndEquality(t *testing.T) {
	const n = 200
	withWorkers(t, 1)
	serial := par.Map(n, func(i int) int64 { return job(42, i) })

	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		parallel := par.Map(n, func(i int) int64 { return job(42, i) })
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: result[%d] = %d, serial = %d", w, i, parallel[i], serial[i])
			}
		}
	}
}

func TestMapSerialPathStaysOnCaller(t *testing.T) {
	withWorkers(t, 1)
	var concurrent, peak atomic.Int64
	par.Map(64, func(i int) int {
		c := concurrent.Add(1)
		defer concurrent.Add(-1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		return i
	})
	if got := peak.Load(); got != 1 {
		t.Fatalf("workers=1 ran %d jobs concurrently, want 1", got)
	}
}

func TestMapBoundsConcurrencyAcrossNesting(t *testing.T) {
	const workers = 4
	withWorkers(t, workers)
	var concurrent, peak atomic.Int64
	outer := par.Map(6, func(i int) int64 {
		inner := par.Map(6, func(j int) int64 {
			c := concurrent.Add(1)
			defer concurrent.Add(-1)
			for {
				m := peak.Load()
				if c <= m || peak.CompareAndSwap(m, c) {
					break
				}
			}
			return job(int64(i), j)
		})
		var sum int64
		for _, v := range inner {
			sum += v
		}
		return sum
	})
	if len(outer) != 6 {
		t.Fatalf("outer len = %d", len(outer))
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds worker budget %d", got, workers)
	}

	par.SetWorkers(1)
	want := par.Map(6, func(i int) int64 {
		var sum int64
		for j := 0; j < 6; j++ {
			sum += job(int64(i), j)
		}
		return sum
	})
	for i := range want {
		if outer[i] != want[i] {
			t.Fatalf("nested result[%d] = %d, serial = %d", i, outer[i], want[i])
		}
	}
}

func TestMapPanicCarriesLowestJobIndex(t *testing.T) {
	for _, w := range []int{1, 8} {
		withWorkers(t, w)
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			par.Map(100, func(i int) int {
				if i >= 37 {
					panic("boom")
				}
				return i
			})
		}()
		jp, ok := recovered.(par.JobPanic)
		if !ok {
			t.Fatalf("workers=%d: recovered %#v, want par.JobPanic", w, recovered)
		}
		// Jobs are claimed in ascending index order, so 37 always runs and
		// its recover records the lowest index even if a later job panicked
		// first in wall time.
		if jp.Index != 37 || jp.Value != "boom" {
			t.Fatalf("workers=%d: got JobPanic{%d, %v}, want {37, boom}", w, jp.Index, jp.Value)
		}
		if jp.Error() == "" {
			t.Fatal("JobPanic.Error is empty")
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	withWorkers(t, 8)
	if got := par.Map(0, func(i int) int { return i }); got != nil {
		t.Fatalf("Map(0) = %v, want nil", got)
	}
	if got := par.Map(1, func(i int) int { return i + 7 }); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Map(1) = %v", got)
	}
	// More workers than jobs.
	got := par.Map(3, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map(3)[%d] = %d", i, v)
		}
	}
}

func TestSetWorkersDefault(t *testing.T) {
	par.SetWorkers(0)
	if got, want := par.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	par.SetWorkers(3)
	if got := par.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	par.SetWorkers(0)
}

// TestMapRaceStress exists so `go test -race ./internal/par` exercises the
// pool hard: many short jobs, workers resized between rounds.
func TestMapRaceStress(t *testing.T) {
	for round, w := range []int{2, 4, 8, 16} {
		withWorkers(t, w)
		sum := par.Map(500, func(i int) int64 { return job(int64(round), i) })
		if len(sum) != 500 {
			t.Fatalf("round %d: len = %d", round, len(sum))
		}
	}
}

// TestMapLocalMatchesMap checks that MapLocal computes the same results
// as Map at every worker width when the local is pure scratch.
func TestMapLocalMatchesMap(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := par.Map(100, fn)
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w)
		got := par.MapLocal(100,
			func() []int { return make([]int, 0, 8) }, // scratch, unused content
			func(scratch []int, i int) int { return fn(i) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: MapLocal[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestMapLocalOneLocalPerGoroutine checks the lazy-local contract: the
// number of locals built never exceeds the worker budget (each executing
// goroutine builds at most one), and the serial path builds exactly one.
func TestMapLocalOneLocalPerGoroutine(t *testing.T) {
	var built atomic.Int64
	newLocal := func() int { return int(built.Add(1)) }

	withWorkers(t, 1)
	built.Store(0)
	par.MapLocal(50, newLocal, func(local, i int) int { return local })
	if n := built.Load(); n != 1 {
		t.Errorf("serial path built %d locals, want 1", n)
	}

	withWorkers(t, 4)
	built.Store(0)
	par.MapLocal(50, newLocal, func(local, i int) int { return local })
	if n := built.Load(); n < 1 || n > 4 {
		t.Errorf("parallel path built %d locals, want 1..4", n)
	}
}

// TestMapLocalPanicPoisoning checks that a panicking job surfaces as a
// JobPanic with the lowest panicking index, like Map.
func TestMapLocalPanicPoisoning(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w)
		func() {
			defer func() {
				r := recover()
				jp, ok := r.(par.JobPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %v, want JobPanic", w, r)
				}
				if jp.Index != 7 {
					t.Errorf("workers=%d: JobPanic.Index = %d, want 7", w, jp.Index)
				}
			}()
			par.MapLocal(64,
				func() struct{} { return struct{}{} },
				func(_ struct{}, i int) int {
					if i == 7 {
						panic("boom")
					}
					return i
				})
			t.Fatalf("workers=%d: MapLocal did not panic", w)
		}()
	}
}

// TestMapLocalZeroJobs mirrors Map's n<=0 contract.
func TestMapLocalZeroJobs(t *testing.T) {
	if got := par.MapLocal(0, func() int { return 0 }, func(int, int) int { return 1 }); got != nil {
		t.Errorf("MapLocal(0) = %v, want nil", got)
	}
}

// TestMapLocalsReusesLocals: a sequence of calls over one free list builds
// at most Workers() locals in all, exactly one on the serial path, and a
// local whose job panicked is not handed out again.
func TestMapLocalsReusesLocals(t *testing.T) {
	for _, w := range []int{1, 4} {
		withWorkers(t, w)
		var built atomic.Int64
		ls := &par.Locals[*int]{New: func() *int { n := int(built.Add(1)); return &n }}
		for call := 0; call < 20; call++ {
			got := par.MapLocals(ls, 1+call%7, func(local *int, i int) int { return i * i })
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d call %d: result[%d] = %d", w, call, i, v)
				}
			}
		}
		if n := built.Load(); n < 1 || n > int64(w) || w == 1 && n != 1 {
			t.Errorf("workers=%d: 20 calls built %d locals, want 1..%d (exactly 1 serially)", w, n, w)
		}

		withWorkers(t, 1)
		var poisoned *int
		func() {
			defer func() { recover() }()
			par.MapLocals(ls, 1, func(local *int, i int) int { poisoned = local; panic("boom") })
		}()
		par.MapLocals(ls, 8, func(local *int, i int) int {
			if local == poisoned {
				t.Errorf("workers=%d: a local whose job panicked was handed out again", w)
			}
			return i
		})
	}
}
