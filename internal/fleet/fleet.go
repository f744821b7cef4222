package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"

	"dvsync/internal/flight"
	"dvsync/internal/par"
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
)

// SchemaVersion versions the census result JSON.
const SchemaVersion = 1

// cacheCap bounds the content-addressed result cache and the digest memo
// in front of it, each evicting FIFO.
const cacheCap = 4096

// dumpIndexCap bounds the engine's anomaly-dump index (FIFO, like the
// result cache).
const dumpIndexCap = 1024

// fifo is a map bounded at max keys that evicts its oldest key first.
// Its keys sit in insertion order in a ring of at most max slots, so an
// eviction overwrites one slot in place: O(1), with the ring's backing
// array fixed once full and no evicted key pinned in it.
type fifo[K comparable, V any] struct {
	m    map[K]V
	ring []K
	next int // once the ring is full, the slot of the oldest key
	max  int
}

func newFIFO[K comparable, V any](max int) fifo[K, V] {
	return fifo[K, V]{m: map[K]V{}, max: max}
}

// add maps k to v, evicting the oldest key at the bound. Adding a key
// already present is a no-op: its value and its place stay.
func (f *fifo[K, V]) add(k K, v V) {
	if _, ok := f.m[k]; ok {
		return
	}
	if len(f.ring) < f.max {
		f.ring = append(f.ring, k)
	} else {
		delete(f.m, f.ring[f.next])
		f.ring[f.next] = k
		f.next = (f.next + 1) % f.max
	}
	f.m[k] = v
}

// keys lists the keys oldest first.
func (f *fifo[K, V]) keys() []K {
	return slices.Concat(f.ring[f.next:], f.ring[:f.next])
}

// AnomalyJankThreshold classifies a cell anomalous on total jank count:
// at or above it the cell names its anomaly dumps, derived from its run
// (sim.Runner.DumpIDs). Matches the recorder's own burst trigger default.
const AnomalyJankThreshold = flight.DefaultJankBurst

// Per-cell distribution buckets of the cohort aggregates.
var (
	// CellFDPSBuckets brackets per-cell frame drops per second from the
	// sub-1 FDPS the paper calls smooth up to hopeless.
	CellFDPSBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}
	// CellJankBuckets brackets per-cell jank counts.
	CellJankBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100}
)

// cellOutcome is the memoised measurement of one unique cell. Outcomes
// are immutable once cached: aggregation only reads them, so a hit from
// a previous census folds in byte-identically to a fresh run.
type cellOutcome struct {
	fdps      float64
	janks     int
	presented int
	edges     int
	skipped   int
	stale     int
	fallbacks int
	completed bool
	latency   *telemetry.Histogram // per-frame latency, LatencyBucketsMs

	// anomalous marks cells that met the anomaly predicate. dumpIDs names
	// the dumps a flight ring on the cell's run would take, derived from
	// the run itself under the cell's plain config digest — cache hits
	// reuse them without running anything. The dumps themselves are not
	// kept: the merge indexes each id with a replay of its cell, and
	// AnomalyDump seals the dump from a fresh replay under a ring on
	// demand.
	anomalous bool
	dumpIDs   []string
}

// dumpRef locates one indexed anomaly dump: how to rebuild the run that
// triggered it, the config digest its dumps are named and sealed under,
// and the dump's index within the run.
type dumpRef struct {
	replay func() sim.Config
	digest string
	index  int
}

// Engine runs censuses and owns the fleet-wide caches: a digest memo
// from each cell's generator inputs to its config digest, and the result
// cache from config digest to outcome. One engine serialises its
// censuses under a mutex — the cache classification that makes hit
// counts deterministic requires it — so dvserve shares a single engine
// across requests for cross-request memoisation. The anomaly-dump index
// has its own lock, so dump lookups and registrations (IndexDumps, which
// dvserve's scenario runs call too) never wait for a running census.
type Engine struct {
	mu      sync.Mutex
	cache   fifo[string, *cellOutcome] // sim.ConfigDigest → outcome
	digests fifo[cell, string]         // generator inputs → sim.ConfigDigest

	dumpMu sync.Mutex
	dumps  fifo[string, dumpRef] // anomaly dump id → producing run

	// replays bounds concurrent AnomalyDump replays at GOMAXPROCS (read
	// at construction): each holds a whole run and its dump buffers.
	replays *slots
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		cache:   newFIFO[string, *cellOutcome](cacheCap),
		digests: newFIFO[cell, string](cacheCap),
		dumps:   newFIFO[string, dumpRef](dumpIndexCap),
		replays: newSlots(runtime.GOMAXPROCS(0)),
	}
}

// AnomalyIDs lists every indexed anomaly-dump id in first-seen order
// (within a census, expansion order — deterministic across repeats and
// -workers widths).
func (e *Engine) AnomalyIDs() []string {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	return e.dumps.keys()
}

// AnomalyDump returns the sealed envelope bytes of one indexed anomaly
// dump. The index keeps only dump ids, so the dump is rebuilt here: the
// producing run is replayed fresh under a new flight recorder — a pure
// function of its config, hence the same bytes on every fetch, whichever
// census, worker or scenario run named the dump. Producers derive ids from
// bare runs (sim.Runner.DumpIDs), so the id check after the replay
// cross-checks every fetched id against a real ring: an id the ring does
// not take at its index is not found. Only the index lookup takes the
// index lock; the replay runs outside it and outside the census lock, so
// fetches never wait for a census. Concurrent replays are
// bounded at GOMAXPROCS: a fetch past the bound waits for a slot, and is
// never rejected.
func (e *Engine) AnomalyDump(id string) ([]byte, bool) {
	ref, ok := e.dumpRef(id)
	if !ok {
		return nil, false
	}
	e.replays.take()
	defer e.replays.give()
	cfg := ref.replay()
	ring := flight.New(flight.Config{})
	cfg.Recorder = ring
	sim.Run(cfg)
	if ids := ring.DumpIDs(ref.digest); ref.index >= len(ids) || ids[ref.index] != id {
		return nil, false
	}
	var buf bytes.Buffer
	if err := flight.EncodeDump(&buf, ref.digest, &ring.Dumps()[ref.index]); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// slots is a counting semaphore. It is a mutex and a condition variable,
// not a buffered channel, because channels stay inside internal/par
// (dvlint's nogoroutine rule).
type slots struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newSlots(n int) *slots {
	s := &slots{free: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// take waits for a free slot and holds it.
func (s *slots) take() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.free == 0 {
		s.cond.Wait()
	}
	s.free--
}

// give frees a slot take held.
func (s *slots) give() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free++
	s.cond.Signal()
}

// dumpRef looks one dump id up in the index.
func (e *Engine) dumpRef(id string) (dumpRef, bool) {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	ref, ok := e.dumps.m[id]
	return ref, ok
}

// IndexDumps publishes one run's dump ids, as flight.Ring.DumpIDs or
// sim.Runner.DumpIDs names them under digest, FIFO-evicting past the
// bound. replay must rebuild the run's config; AnomalyDump replays it
// with a flight recorder attached to seal a dump. Registering an id already present is a no-op
// (cache hits, warm repeats, repeated scenario runs), so ids stay in
// first-seen order. The census registers its cells in expansion order.
// IndexDumps takes only the index lock, so it never waits for a census.
func (e *Engine) IndexDumps(digest string, replay func() sim.Config, ids []string) {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	for i, id := range ids {
		e.dumps.add(id, dumpRef{replay: replay, digest: digest, index: i})
	}
}

// CohortResult is the aggregate of one cohort's cells.
type CohortResult struct {
	// Name is the cohort label from the spec.
	Name string `json:"name"`
	// Cells is how many cells the cohort expanded to.
	Cells int `json:"cells"`
	// Simulated counts cells this cohort ran fresh (first occurrence
	// fleet-wide); CacheHits counts cells served from the result cache.
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// MeanFDPS averages per-cell FDPS over the cohort.
	MeanFDPS float64 `json:"mean_fdps"`
	// MeanLatencyMs averages per-frame rendering latency over every
	// presented frame of the cohort (0 when nothing presented).
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	// Janks totals repeated-frame edges across the cohort.
	Janks int `json:"janks"`
	// Anomalies counts cells that met the anomaly predicate (watchdog
	// trip, fallback, or ≥ AnomalyJankThreshold janks); AnomalyDumps lists
	// the dump ids derived from their runs, in expansion order.
	Anomalies    int      `json:"anomalies"`
	AnomalyDumps []string `json:"anomaly_dumps,omitempty"`
	// Metrics is the cohort's telemetry snapshot: counters, mean gauges
	// and the FDPS/jank/latency distribution histograms.
	Metrics *telemetry.Snapshot `json:"metrics"`

	// Registry backs Metrics, for callers that want the Prometheus
	// exposition instead of the snapshot.
	Registry *telemetry.Registry `json:"-"`
}

// Result is one census outcome.
type Result struct {
	// Schema is SchemaVersion.
	Schema int `json:"schema"`
	// Name echoes the spec name.
	Name string `json:"name,omitempty"`
	// Cells is the total expanded grid size; UniqueCells counts distinct
	// parameter sets among them.
	Cells       int `json:"cells"`
	UniqueCells int `json:"unique_cells"`
	// Simulated and CacheHits partition Cells: every cell was either run
	// fresh or served from the content-addressed cache (including hits
	// left behind by earlier censuses on the same engine).
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// Anomalies totals anomalous cells across every cohort.
	Anomalies int `json:"anomalies"`
	// Cohorts lists per-cohort aggregates in spec order.
	Cohorts []*CohortResult `json:"cohorts"`
}

// WriteJSON writes the census result as indented JSON with a trailing
// newline — byte-identical for identical specs at any -workers width.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// plan is one cell scheduled within a census: its generator inputs, its
// config (built only when the digest memo missed, else left for the
// worker to build if the cell must simulate), its cache digest, and
// (after classification/simulation) its outcome.
type plan struct {
	cell   cell
	cfg    sim.Config
	digest string
	out    *cellOutcome
}

// Census expands the spec, simulates every cell not already memoised,
// and aggregates per-cohort telemetry. When onCohort is non-nil it is
// invoked with each cohort's aggregate as soon as that cohort completes
// — the /fleet SSE stream taps it. The returned Result is complete and
// detached.
//
// Cohorts run one at a time. A cell the digest memo has seen skips trace
// generation and digesting; the rest get their trace and config digest
// computed over par.Map. The uncached cells are sharded over
// par.MapLocal with one pooled bare Runner per worker and shape, and
// each cell runs once: an anomalous cell derives its dump ids from that
// run. Classification against the cache and the merge of shard results
// both run serially in cell-expansion order, which is what makes the
// output byte-identical at every -workers width and the hit counters
// exact.
func (e *Engine) Census(spec Spec, onCohort func(*CohortResult)) (*Result, error) {
	cohorts, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	res := &Result{Schema: SchemaVersion, Name: spec.Name}
	seen := map[string]bool{} // digests encountered in this census
	for _, rc := range cohorts {
		cr := e.censusCohort(rc, seen)
		res.Cohorts = append(res.Cohorts, cr)
		res.Cells += cr.Cells
		res.Simulated += cr.Simulated
		res.CacheHits += cr.CacheHits
		res.Anomalies += cr.Anomalies
		if onCohort != nil {
			onCohort(cr)
		}
	}
	res.UniqueCells = len(seen)
	return res, nil
}

// censusCohort runs one cohort batch: digest → classify → simulate →
// merge. Each phase runs under one pprof label, phase=census.<name>, set
// once per cohort and inherited by the par workers the phase starts, so
// `go tool pprof -tags` splits a census profile by phase. A label reads
// no clock and changes no output.
func (e *Engine) censusCohort(rc resolvedCohort, seen map[string]bool) *CohortResult {
	// A cell's config digest is a pure function of its generator inputs,
	// so the memo answers every cell it has seen. Generating a trace and
	// digesting its config are pure per cell, so the misses fan out; the
	// memo lookups and records, and classification, which reads and
	// counts against the shared cache, stay serial.
	plans := make([]plan, len(rc.cells))
	phase("census.digest", func() {
		var miss []int // plan indices the memo has no digest for
		for i, c := range rc.cells {
			plans[i].cell = c
			if d, ok := e.digests.m[c]; ok {
				plans[i].digest = d
			} else {
				miss = append(miss, i)
			}
		}
		fresh := par.Map(len(miss), func(j int) plan {
			p := plans[miss[j]]
			p.cfg = p.cell.config()
			p.digest = sim.ConfigDigest(p.cfg)
			return p
		})
		for j, i := range miss {
			plans[i] = fresh[j]
			e.digests.add(plans[i].cell, plans[i].digest)
		}
	})

	var need []int              // plan indices to simulate, in expansion order
	pending := map[string]int{} // digest → index into need, for intra-batch duplicates
	hits := 0
	phase("census.classify", func() {
		for i := range plans {
			d := plans[i].digest
			seen[d] = true
			if out, ok := e.cache.m[d]; ok {
				plans[i].out = out
				hits++
				continue
			}
			if _, ok := pending[d]; ok {
				hits++
				continue
			}
			pending[d] = len(need)
			need = append(need, i)
		}
	})

	// Shard the unique uncached cells. Each worker goroutine lazily pools
	// Runners per graph shape and swaps traces through RunTrace, so
	// replica sweeps rebuild nothing (DESIGN.md §13, §14).
	var outs []*cellOutcome
	phase("census.simulate", func() {
		outs = par.MapLocal(len(need), newWorker, func(wk *worker, j int) *cellOutcome {
			return wk.run(plans[need[j]])
		})
	})

	// Serial merge, back in expansion order: publish fresh outcomes to
	// the cache and resolve intra-batch duplicates.
	var cr *CohortResult
	phase("census.merge", func() {
		for j, i := range need {
			plans[i].out = outs[j]
			e.cache.add(plans[i].digest, outs[j])
		}
		for i := range plans {
			p := &plans[i]
			if p.out == nil {
				p.out = outs[pending[p.digest]]
			}
			if len(p.out.dumpIDs) > 0 {
				e.IndexDumps(p.digest, p.cell.config, p.out.dumpIDs)
			}
		}
		cr = aggregate(rc.name, plans, len(need), hits)
	})
	return cr
}

// phase runs fn under the pprof label phase=name.
func phase(name string, fn func()) {
	pprof.Do(context.TODO(), pprof.Labels("phase", name), func(context.Context) { fn() })
}

// worker is one shard goroutine's private state: one bare Runner per
// graph shape, built on the shape's first cell.
type worker struct {
	runners map[shape]*sim.Runner
}

func newWorker() *worker { return &worker{runners: map[shape]*sim.Runner{}} }

// run simulates one cell on the worker's Runner for its shape. An
// anomalous cell names its dumps from the same run: DumpIDs gives the
// ids a flight ring on the run would take, under the cell's digest, as
// AnomalyDump's replay names them. A cell the digest memo answered
// carries no config; the worker builds it.
func (wk *worker) run(p plan) *cellOutcome {
	if p.cfg.Trace == nil {
		p.cfg = p.cell.config()
	}
	rn, ok := wk.runners[p.cell.shape]
	if !ok {
		rn = sim.NewRunner(p.cfg)
		wk.runners[p.cell.shape] = rn
	}
	res := rn.RunTrace(p.cfg.Trace)
	out := &cellOutcome{
		fdps:      res.FDPS(),
		janks:     len(res.Janks),
		presented: len(res.Presented),
		edges:     res.EdgesInWindow,
		skipped:   res.Skipped,
		stale:     res.StaleDropped,
		fallbacks: len(res.Fallbacks),
		completed: res.Completed,
		latency:   telemetry.NewHistogram(telemetry.LatencyBucketsMs),
	}
	for _, ms := range res.LatencyMs {
		out.latency.Observe(ms)
	}
	// Only anomalous cells index dumps: a clean faulted cell's
	// fault-onset dump stays unnamed, as census JSON pins.
	if !out.completed || out.fallbacks > 0 || out.janks >= AnomalyJankThreshold {
		out.anomalous = true
		out.dumpIDs = rn.DumpIDs(p.digest)
	}
	return out
}

// aggregate folds the cohort's outcomes — in expansion order, so float
// accumulation is deterministic — into a fresh telemetry registry.
func aggregate(name string, plans []plan, simulated, hits int) *CohortResult {
	reg := telemetry.NewRegistry()
	cells := reg.Counter("fleet_cells_total", "census cells aggregated into this cohort")
	simc := reg.Counter("fleet_cells_simulated_total", "cells simulated fresh (first occurrence fleet-wide)")
	hitc := reg.Counter("fleet_cache_hits_total", "cells served from the content-addressed result cache")
	frames := reg.Counter("fleet_frames_presented_total", "frames latched across the cohort")
	janks := reg.Counter("fleet_janks_total", "repeated-frame edges across the cohort")
	edges := reg.Counter("fleet_edges_total", "hardware refresh edges across the cohort")
	incomplete := reg.Counter("fleet_cells_incomplete_total", "cells whose run hit the watchdog")
	// The help string predates derived dump ids, when anomalous cells ran
	// a second time under a ring. It is part of census JSON, which
	// censusPins pins, so it stays byte-identical.
	anom := reg.Counter("fleet_cells_anomalous_total", "cells re-run under the flight recorder")
	anomDumps := reg.Counter("fleet_anomaly_dumps_total", "anomaly dumps captured across the cohort")
	meanFDPS := reg.Gauge("fleet_fdps_mean", "mean per-cell FDPS of the cohort")
	meanLat := reg.Gauge("fleet_latency_mean_ms", "mean per-frame rendering latency of the cohort")
	hFDPS := reg.Histogram("fleet_cell_fdps", "per-cell FDPS distribution", CellFDPSBuckets)
	hJank := reg.Histogram("fleet_cell_janks", "per-cell jank-count distribution", CellJankBuckets)
	hLat := reg.Histogram("fleet_frame_latency_ms", "per-frame rendering latency distribution", telemetry.LatencyBucketsMs)

	simc.Add(float64(simulated))
	hitc.Add(float64(hits))
	var fdpsSum float64
	jankTotal := 0
	anomalies := 0
	var dumpIDs []string
	for i := range plans {
		out := plans[i].out
		cells.Inc()
		if out.anomalous {
			anomalies++
			anom.Inc()
			anomDumps.Add(float64(len(out.dumpIDs)))
			dumpIDs = append(dumpIDs, out.dumpIDs...)
		}
		frames.Add(float64(out.presented))
		janks.Add(float64(out.janks))
		edges.Add(float64(out.edges))
		if !out.completed {
			incomplete.Inc()
		}
		hFDPS.Observe(out.fdps)
		hJank.Observe(float64(out.janks))
		hLat.Merge(out.latency)
		fdpsSum += out.fdps
		jankTotal += out.janks
	}
	cr := &CohortResult{Name: name, Cells: len(plans), Simulated: simulated,
		CacheHits: hits, Janks: jankTotal, Anomalies: anomalies, AnomalyDumps: dumpIDs}
	if len(plans) > 0 {
		cr.MeanFDPS = fdpsSum / float64(len(plans))
	}
	if hLat.Count() > 0 {
		cr.MeanLatencyMs = hLat.Sum() / float64(hLat.Count())
	}
	meanFDPS.Set(cr.MeanFDPS)
	meanLat.Set(cr.MeanLatencyMs)
	cr.Metrics = reg.Snapshot()
	cr.Registry = reg
	return cr
}
