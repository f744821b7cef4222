package main

import (
	"sync"
	"sync/atomic"

	"dvsync"
)

// runner is the finished-run cache behind /metrics, /snapshot and
// /stream: the first request for a parameter set runs it once, and every
// request encodes the stored run. A run is a pure function of its
// parameters, so a request repeated after a restart, with an empty
// cache, gets the same bytes again.
type runner struct {
	// cmu guards the cache; cache maps a scenario parameter set to its
	// entry and order tracks FIFO eviction age.
	cmu   sync.Mutex
	cache map[scenarioKey]*runEntry
	order []scenarioKey

	// runs counts the scenario simulations the cache has run: one per
	// miss, none per hit.
	runs atomic.Int64

	// eng is the server's fleet engine (newServer sets it). Cached
	// scenario runs register their flight-recorder dump ids in its dump
	// index, the one GET /anomalies serves.
	eng *dvsync.FleetEngine
}

// runnerCacheSize bounds how many distinct parameter sets keep a finished
// run. Past the bound the oldest entry is evicted FIFO — a scrape fleet
// cycling through more scenarios than this just runs each request as it
// did before the cache existed.
const runnerCacheSize = 16

// scenarioKey identifies one scenario parameter set: every field of
// params that influences the run (the faults pointer is derived from
// fault+severity+seed, so the scalars cover it).
type scenarioKey struct {
	mode     string
	hz       int
	buffers  int
	frames   int
	seed     int64
	fault    string
	severity float64
}

func (p params) key() scenarioKey {
	return scenarioKey{mode: p.mode, hz: p.hz, buffers: p.buffers,
		frames: p.frames, seed: p.seed, fault: p.fault, severity: p.severity}
}

// runEntry is one cached scenario: its finished run's telemetry
// registry, anomaly-dump ids and the config digest naming them. A miss
// runs the scenario once and publishes the three fields; every later
// request for the key encodes them. Published fields are never written
// again, so requests read them after releasing the lock.
type runEntry struct {
	mu     sync.Mutex
	reg    *dvsync.TelemetryRegistry
	ids    []string
	digest string // config digest naming and sealing the entry's dumps
}

// entry returns the cache entry for p's parameter set, creating it — and
// evicting the oldest entry past the cache bound — on a miss. An evicted
// entry mid-request stays alive through its reference; only future
// requests run the scenario again.
func (rn *runner) entry(p params) *runEntry {
	k := p.key()
	rn.cmu.Lock()
	defer rn.cmu.Unlock()
	if rn.cache == nil {
		rn.cache = make(map[scenarioKey]*runEntry)
	}
	e, ok := rn.cache[k]
	if !ok {
		if len(rn.order) >= runnerCacheSize {
			delete(rn.cache, rn.order[0])
			// Compact in place: re-slicing forward (order = order[1:])
			// pins the backing array and keeps evicted keys reachable, so
			// a scrape fleet cycling through many scenarios grows memory
			// it can never release.
			copy(rn.order, rn.order[1:])
			rn.order = rn.order[:len(rn.order)-1]
		}
		e = &runEntry{}
		rn.cache[k] = e
		rn.order = append(rn.order, k)
	}
	return e
}

// digestRing is the default flight ring scenario digests name. The
// digest records a ring's presence and parameters (ConfigDigest reads
// only Config), so one ring, built once and never run, serves every
// entry.
var digestRing = dvsync.NewFlightRecorder(dvsync.FlightConfig{})

// serve returns p's finished run: its telemetry registry and the ids of
// the anomaly dumps a flight recorder on the run would take. The first
// request for a parameter set runs it once (load); every request, that
// one included, gets the stored run, and handlers encode it after the
// entry lock is released, so a slow client never holds up the others.
// The registry is read-only. The bodies are those of a fresh run: the
// run is a pure function of p, and newParams admits only parameters the
// simulator accepts, so serving cannot fail.
//
// Each request indexes the ids in the fleet engine's dump index with a
// replay of p, so GET /anomalies/{id} seals each dump on fetch by
// replaying p under a ring, the server keeps no dump bytes, and ids the
// index evicted come back on the next request. The replay attaches no
// registry: observers do not change a run, so it triggers the same
// dumps.
func (rn *runner) serve(p params) (*dvsync.TelemetryRegistry, []string) {
	reg, ids, digest := rn.load(rn.entry(p), p)
	rn.eng.IndexDumps(digest, func() dvsync.Config { return p.config(nil) }, ids)
	return reg, ids
}

// load returns e's finished run, running p first if no request has yet.
// The run's Runner carries no OnSample hook and no flight recorder:
// DumpIDs derives the ids a default ring on the run would take, named
// under the digest of the config with the registry and a default ring
// attached — the names TestScenarioDumpBytesPinned pins. The fields are
// published only after the run returns, so a run that panics leaves the
// entry empty and the next request retries; the Runner is dropped.
func (rn *runner) load(e *runEntry, p params) (*dvsync.TelemetryRegistry, []string, string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reg == nil {
		reg := dvsync.NewTelemetryRegistry()
		cfg := p.config(reg)
		r := dvsync.NewRunner(cfg)
		r.Run()
		rn.runs.Add(1)
		cfg.Recorder = digestRing
		digest := dvsync.ConfigDigest(cfg)
		ids := r.DumpIDs(digest)
		e.reg, e.ids, e.digest = reg, ids, digest
	}
	return e.reg, e.ids, e.digest
}
