package main

import (
	"sync"

	"dvsync"
)

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
// the anomaly dumps a flight recorder on the run would take. The
// registry is read-only; handlers encode it after serve returns.
// onSample, when non-nil, sees every sampled row in virtual-time order
// before serve returns (the SSE stream's rows).
//
// Without a checkpoint directory the scenario's finished run is cached:
// the first request for a parameter set runs it once (load), and every
// request — that one included — hands onSample the stored rows after the
// entry lock is released, so a slow client never holds up the others.
// The bodies are those of a fresh run: the run is a pure function of p.
// Each request indexes the ids in the fleet engine's dump index with a
// replay of p, so GET /anomalies/{id} seals each dump on fetch by
// replaying p under a ring, the server keeps no dump bytes, and ids the
// index evicted come back on the next request. The replay attaches no
// registry: observers do not change a run, so it triggers the same
// dumps.
//
// Checkpointed runs keep the uncached path and onSample observes each row
// live as the run samples it. A run resumed after a crash replays from
// the start, so onSample sees every row of it too. They return no dump
// ids.
func (rn *runner) serve(p params,
	onSample func(*dvsync.TelemetryRegistry, dvsync.TelemetrySample)) (*dvsync.TelemetryRegistry, []string, error) {
	if rn.dir != "" {
		reg := dvsync.NewTelemetryRegistry()
		if onSample != nil {
			reg.OnSample(func(row dvsync.TelemetrySample) { onSample(reg, row) })
		}
		_, err := rn.run(p, reg)
		return reg, nil, err
	}
	reg, ids, digest := rn.load(rn.entry(p), p)
	rn.eng.IndexDumps(digest, func() dvsync.Config { return p.config(nil) }, ids)
	if onSample != nil {
		for _, row := range reg.Series().Rows {
			onSample(reg, row)
		}
	}
	return reg, ids, nil
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
