package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"dvsync/internal/flight"
	"dvsync/internal/par"
	"dvsync/internal/sim"
	"dvsync/internal/telemetry"
)

// SchemaVersion versions the census result JSON.
const SchemaVersion = 1

// cacheCap bounds the content-addressed result cache. Eviction is FIFO
// with in-place compaction — the order slice never pins evicted keys in
// its backing array (the dvserve runner cache had exactly that leak).
const cacheCap = 4096

// dumpIndexCap bounds the engine's anomaly-dump index (FIFO, like the
// result cache).
const dumpIndexCap = 1024

// AnomalyJankThreshold classifies a cell anomalous on total jank count:
// at or above it the cell is re-run once with the flight recorder
// attached. Matches the recorder's own burst trigger default.
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

	// anomalous marks cells that met the anomaly predicate and were
	// re-run once under the flight recorder. dumpIDs names the dumps that
	// re-run triggered, keyed by the cell's plain config digest — cache
	// hits reuse them without re-running anything. The dumps themselves
	// are not kept: the merge indexes each id with a replay of its cell,
	// and AnomalyDump seals the dump from that replay on demand.
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

// Engine runs censuses and owns the fleet-wide result cache. One engine
// serialises its censuses under a mutex — the cache classification that
// makes hit counts deterministic requires it — so dvserve shares a
// single engine across requests for cross-request memoisation. The
// anomaly-dump index has its own lock, so dump lookups and registrations
// (IndexDumps, which dvserve's scenario runs call too) never wait for a
// running census.
type Engine struct {
	mu    sync.Mutex
	cache map[string]*cellOutcome // sim.ConfigDigest → outcome
	order []string                // FIFO eviction order, compacted on evict

	dumpMu    sync.Mutex
	dumps     map[string]dumpRef // anomaly dump id → producing cell
	dumpOrder []string           // FIFO eviction order of the dump index
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{cache: map[string]*cellOutcome{}, dumps: map[string]dumpRef{}}
}

// AnomalyIDs lists every indexed anomaly-dump id in first-seen order
// (within a census, expansion order — deterministic across repeats and
// -workers widths).
func (e *Engine) AnomalyIDs() []string {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	return append([]string(nil), e.dumpOrder...)
}

// AnomalyDump returns the sealed envelope bytes of one indexed anomaly
// dump. The index keeps only dump ids, so the dump is rebuilt here: the
// producing run is replayed under a fresh flight recorder — a pure
// function of its config, hence the same bytes on every fetch. Only the
// index lookup takes the index lock; the replay runs outside it, so
// fetches neither serialise on each other nor wait for a census.
func (e *Engine) AnomalyDump(id string) ([]byte, bool) {
	ref, ok := e.dumpRef(id)
	if !ok {
		return nil, false
	}
	ring := flightRun(ref.replay())
	if ids := ring.DumpIDs(ref.digest); ref.index >= len(ids) || ids[ref.index] != id {
		return nil, false
	}
	var buf bytes.Buffer
	if err := flight.EncodeDump(&buf, ref.digest, &ring.Dumps()[ref.index]); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// dumpRef looks one dump id up in the index.
func (e *Engine) dumpRef(id string) (dumpRef, bool) {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	ref, ok := e.dumps[id]
	return ref, ok
}

// IndexDumps publishes one run's dump ids, as flight.Ring.DumpIDs names
// them under digest, FIFO-evicting past the bound. replay must rebuild
// the run's config; AnomalyDump replays it with a flight recorder
// attached to seal a dump. Registering an id already present is a no-op
// (cache hits, warm repeats, repeated scenario runs), so ids stay in
// first-seen order. The census registers its cells in expansion order.
// IndexDumps takes only the index lock, so it never waits for a census.
func (e *Engine) IndexDumps(digest string, replay func() sim.Config, ids []string) {
	e.dumpMu.Lock()
	defer e.dumpMu.Unlock()
	for i, id := range ids {
		if _, ok := e.dumps[id]; ok {
			continue
		}
		if len(e.dumpOrder) >= dumpIndexCap {
			delete(e.dumps, e.dumpOrder[0])
			copy(e.dumpOrder, e.dumpOrder[1:])
			e.dumpOrder = e.dumpOrder[:len(e.dumpOrder)-1]
		}
		e.dumps[id] = dumpRef{replay: replay, digest: digest, index: i}
		e.dumpOrder = append(e.dumpOrder, id)
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
	// trip, fallback, or ≥ AnomalyJankThreshold janks) and were re-run
	// under the flight recorder; AnomalyDumps lists their dump ids in
	// expansion order.
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

// plan is one cell scheduled within a census: its generator inputs,
// config, cache digest, runner-shape key, and (after classification/
// simulation) its outcome.
type plan struct {
	cell   cell
	cfg    sim.Config
	digest string
	shape  string
	out    *cellOutcome
}

// Census expands the spec, simulates every cell not already memoised,
// and aggregates per-cohort telemetry. When onCohort is non-nil it is
// invoked with each cohort's aggregate as soon as that cohort completes
// — the /fleet SSE stream taps it. The returned Result is complete and
// detached.
//
// Cohorts run one at a time. Each cell's trace and config digest are
// computed over par.Map, and the uncached cells are sharded over
// par.MapLocal with a pooled Runner per worker; classification against
// the cache and the merge of shard results both run serially in
// cell-expansion order, which is what makes the output byte-identical at
// every -workers width and the hit counters exact.
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

// censusCohort runs one cohort batch: digest → classify → shard → merge.
func (e *Engine) censusCohort(rc resolvedCohort, seen map[string]bool) *CohortResult {
	// Generating a trace and digesting its config are pure per cell, so
	// they fan out; only classification, which reads and counts against
	// the shared cache, stays serial.
	plans := par.Map(len(rc.cells), func(i int) plan {
		c := rc.cells[i]
		cfg := c.config()
		return plan{cell: c, cfg: cfg, digest: sim.ConfigDigest(cfg), shape: c.shape()}
	})
	var need []int              // plan indices to simulate, in expansion order
	pending := map[string]int{} // digest → index into need, for intra-batch duplicates
	hits := 0
	for i := range plans {
		d := plans[i].digest
		seen[d] = true
		if out, ok := e.cache[d]; ok {
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

	// Shard the unique uncached cells. Each worker goroutine lazily pools
	// one Runner per graph shape and swaps traces through RunTrace, so
	// replica sweeps rebuild nothing (DESIGN.md §13).
	outs := par.MapLocal(len(need), newWorker, func(wk *worker, j int) *cellOutcome {
		return wk.run(plans[need[j]])
	})

	// Serial merge, back in expansion order: publish fresh outcomes to
	// the cache and resolve intra-batch duplicates.
	for j, i := range need {
		plans[i].out = outs[j]
		e.insert(plans[i].digest, outs[j])
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
	return aggregate(rc.name, plans, len(need), hits)
}

// insert publishes one outcome, evicting FIFO past the cache bound. The
// eviction compacts the order slice in place instead of re-slicing it
// forward, so the backing array stays bounded and evicted digests are
// actually released.
func (e *Engine) insert(digest string, out *cellOutcome) {
	if len(e.order) >= cacheCap {
		delete(e.cache, e.order[0])
		copy(e.order, e.order[1:])
		e.order = e.order[:len(e.order)-1]
	}
	e.cache[digest] = out
	e.order = append(e.order, digest)
}

// worker is one shard goroutine's private state.
type worker struct {
	runners map[string]*sim.Runner // graph shape → pooled Runner
}

func newWorker() *worker { return &worker{runners: map[string]*sim.Runner{}} }

// run simulates one cell on the worker's pooled Runner for its shape.
func (wk *worker) run(p plan) *cellOutcome {
	rn, ok := wk.runners[p.shape]
	if !ok {
		rn = sim.NewRunner(p.cfg)
		wk.runners[p.shape] = rn
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
	if !out.completed || out.fallbacks > 0 || out.janks >= AnomalyJankThreshold {
		out.anomalous = true
		out.dumpIDs = flightRun(p.cfg).DumpIDs(p.digest)
	}
	return out
}

// flightRun runs one config fresh with the flight recorder attached and
// returns the ring holding the dumps it triggered. The run is a pure
// function of the config, so the census re-run that names the dumps and
// every later AnomalyDump that seals one see the same dumps, no matter
// which worker (or which census, or which dvserve request) ran it first.
func flightRun(cfg sim.Config) *flight.Ring {
	ring := flight.New(flight.Config{})
	cfg.Recorder = ring
	sim.Run(cfg)
	return ring
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
