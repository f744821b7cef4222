// Package par is the repository's single sanctioned concurrency point: a
// deterministic fan-out runner for independent simulation jobs.
//
// Everything else in this module is single-threaded by decree — dvlint's
// nogoroutine rule fails the build if any other package spawns a goroutine
// or touches a channel (DESIGN.md §6, §8). Experiments parallelise by
// submitting independent, seeded jobs through Map and folding the returned
// slice serially in index order, so the floating-point arithmetic — and
// therefore every golden table and replay digest — is byte-identical
// whether the pool runs one worker or sixteen.
//
// The determinism rules Map relies on:
//
//   - jobs share no mutable state: each builds its own sim.System, engine
//     and recorder (workload traces and profiles are read-only and may be
//     shared);
//   - randomness inside a job comes only from a seed the job owns — a
//     deterministic function of the job index such as seed+i, or a child
//     seed minted with dist.SplitSeed, mirroring the fault injector's
//     split-RNG discipline — never from a shared stream whose draw order
//     would depend on scheduling;
//   - callers aggregate the result slice serially in index order after Map
//     returns (floating-point addition is not associative, so a reduction
//     inside the workers would make the sum depend on completion order).
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is the process-wide worker budget. tokens holds workers−1 slots:
// every Map call also runs jobs on its calling goroutine, so the slots
// bound how many helper goroutines exist across all concurrent and nested
// Map calls. A nested Map that finds the bucket empty simply runs its jobs
// inline on the caller — fan-out composes without goroutine explosion.
type pool struct {
	workers int
	tokens  chan struct{}
}

// cur is swapped atomically by SetWorkers; in-flight Map calls keep the
// pool they loaded (helpers return their token to the bucket they took it
// from), so resizing never loses or double-counts a slot.
var cur atomic.Pointer[pool]

func init() { SetWorkers(0) }

// SetWorkers sets the process-wide worker budget. n <= 0 resets to
// runtime.GOMAXPROCS(0), the default. n == 1 forces the legacy serial
// path: Map degenerates to a plain loop on the calling goroutine and no
// goroutine is ever spawned.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &pool{workers: n}
	if n > 1 {
		p.tokens = make(chan struct{}, n-1)
		for i := 0; i < n-1; i++ {
			p.tokens <- struct{}{}
		}
	}
	cur.Store(p)
}

// Workers returns the current worker budget.
func Workers() int { return cur.Load().workers }

// JobPanic is the value Map re-panics with after a job panics: the run is
// poisoned and the failure carries the lowest panicking job index, so a
// crash inside a 125-cell sweep is attributable from the panic value alone.
type JobPanic struct {
	// Index is the lowest job index whose function panicked.
	Index int
	// Value is that job's original panic value.
	Value any
}

// Error implements error so recovered JobPanics read well in test output.
func (p JobPanic) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v", p.Index, p.Value)
}

// Map runs fn(0) … fn(n−1) and returns the results in index order. Jobs
// are claimed from an atomic counter in ascending order by the calling
// goroutine plus up to Workers()−1 token-bounded helpers; with a budget of
// one (or a single job) it is a plain serial loop. If any job panics, the
// remaining unclaimed jobs are abandoned and Map re-panics with a JobPanic
// once all in-flight jobs have finished.
func Map[T any](n int, fn func(i int) T) []T {
	return MapLocal(n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// MapLocal is Map with per-goroutine scratch state: every goroutine that
// executes jobs — the caller and each token-bounded helper — lazily builds
// one local L via newLocal and threads it through every job it claims.
// The canonical local is a reused simulation context (sim.Runner): replica
// loops rewind one wired graph per worker instead of reconstructing it per
// job, which is where the runs/sec of the experiment harness comes from.
//
// The determinism rules of Map apply unchanged, plus one: a job's RESULT
// must not depend on its local beyond reuse of scratch capacity. Which
// goroutine claims which job varies with scheduling, so any local whose
// history leaks into the output (an RNG stream, an accumulator) would
// break the byte-identical-at-any-width contract. Locals are never shared
// between goroutines and need no locking; they are discarded when MapLocal
// returns. It is MapLocals over a free list that nobody keeps.
func MapLocal[L, T any](n int, newLocal func() L, fn func(local L, i int) T) []T {
	return MapLocals(&Locals[L]{New: newLocal}, n, fn)
}

// Locals is a free list of MapLocal scratch values that outlive one call:
// MapLocals hands each goroutine that claims a job a local from the list,
// building one with New only when the list is empty, and puts every local
// back when the goroutine runs out of jobs. A sequence of calls over one
// list — the probes of a calibration search — therefore builds at most
// Workers() locals in all instead of up to that many per call.
//
// Scope a list to one such sequence and fill it only with locals every
// job fully rewinds: the determinism rule of MapLocal covers everything
// the list hands out, and a list that outlived the sequence would carry
// one caller's scratch into another's jobs. A local is held by one
// goroutine at a time. Set New before use; do not copy a list.
type Locals[L any] struct {
	// New builds a local when the list is empty.
	New func() L

	mu   sync.Mutex
	free []L
}

// get takes a local from the list, building one if it is empty.
func (ls *Locals[L]) get() L {
	ls.mu.Lock()
	if k := len(ls.free); k > 0 {
		l := ls.free[k-1]
		ls.free = ls.free[:k-1]
		ls.mu.Unlock()
		return l
	}
	ls.mu.Unlock()
	return ls.New()
}

// put returns a local to the list.
func (ls *Locals[L]) put(l L) {
	ls.mu.Lock()
	ls.free = append(ls.free, l)
	ls.mu.Unlock()
}

// MapLocals is MapLocal drawing its locals from ls and returning them when
// it is done; it is the package's one fan-out loop. A goroutine takes its
// local only once it has claimed a job, so helpers that lose the race for
// the first claim never take or build one. A local whose job panicked is
// not returned to the list.
func MapLocals[L, T any](ls *Locals[L], n int, fn func(local L, i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p := cur.Load()
	if p.workers <= 1 || n == 1 {
		local := ls.get()
		for i := range out {
			func() {
				defer func() {
					if r := recover(); r != nil {
						panic(JobPanic{Index: i, Value: r})
					}
				}()
				out[i] = fn(local, i)
			}()
		}
		ls.put(local)
		return out
	}

	var (
		next  atomic.Int64
		mu    sync.Mutex
		first *JobPanic
	)
	run := func() {
		var (
			local    L
			held, ok bool
		)
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			if !held {
				local = ls.get()
				held, ok = true, true
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						ok = false
						next.Store(int64(n)) // poison: abandon unclaimed jobs
						mu.Lock()
						if first == nil || i < first.Index {
							first = &JobPanic{Index: i, Value: r}
						}
						mu.Unlock()
					}
				}()
				out[i] = fn(local, i)
			}()
		}
		if held && ok {
			ls.put(local)
		}
	}

	var wg sync.WaitGroup
spawn:
	for h := 0; h < p.workers-1 && h < n-1; h++ {
		select {
		case <-p.tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { p.tokens <- struct{}{} }()
				run()
			}()
		default:
			break spawn // budget exhausted (nested Map): run inline only
		}
	}
	run()
	wg.Wait()
	if first != nil {
		panic(*first)
	}
	return out
}
