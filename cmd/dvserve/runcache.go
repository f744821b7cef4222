package main

import (
	"sync"

	"dvsync"
	"dvsync/internal/simtime"
)

// runnerCacheSize bounds how many distinct parameter sets keep a wired
// run context alive. Past the bound the oldest entry is evicted FIFO —
// a scrape fleet cycling through more scenarios than this just rebuilds
// graphs as it did before the cache existed.
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

// runEntry is one cached scenario context: a wired sim.Runner with its
// registry. The entry lock serialises runs on the shared graph; handlers
// finish exporting from the registry before the lock releases.
type runEntry struct {
	mu     sync.Mutex
	rn     *dvsync.Runner
	reg    *dvsync.TelemetryRegistry
	ring   *dvsync.FlightRing // flight recorder wired into the cached graph
	digest string             // config digest pinning the entry's dumps
}

// entry returns the cached run context for p's parameter set, creating
// it — and evicting the oldest entry past the cache bound — on a miss.
// An evicted entry mid-request stays alive through its reference; only
// future requests rebuild it.
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

// serve executes p's scenario and hands the attached registry to emit
// while the run context is locked. onSample, when non-nil, observes every
// sampled row as the virtual clock advances (the SSE stream path).
//
// Without a checkpoint directory the scenario runs on a cached Runner:
// one wired simulation graph per distinct parameter set, rewound per
// request instead of rebuilt. The registry is part of the cached wiring,
// so handlers serialise their export inside emit and never retain the
// registry past it. Checkpointed runs keep the uncached path — their
// graphs are rebuilt or resumed from snapshots by design, and reuse
// would fight the resume machinery for the same state.
// serve also returns the anomaly-dump ids the run's flight recorder
// captured (always empty on the checkpointed path, which runs without a
// recorder by design): the SSE handlers announce them as `anomaly`
// events. The ids go into the fleet engine's dump index with a replay of
// p, so GET /anomalies/{id} seals each dump on fetch and the server
// keeps no dump bytes. The replay attaches no registry: observers do not
// change a run, so it triggers the same dumps.
func (rn *runner) serve(p params,
	onSample func(*dvsync.TelemetryRegistry, dvsync.TelemetrySample),
	emit func(*dvsync.TelemetryRegistry)) (simtime.Time, []string, error) {
	if rn.dir != "" {
		reg := dvsync.NewTelemetryRegistry()
		if onSample != nil {
			reg.OnSample(func(row dvsync.TelemetrySample) { onSample(reg, row) })
		}
		resumedFrom, err := rn.run(p, reg)
		if err != nil {
			return resumedFrom, nil, err
		}
		emit(reg)
		return resumedFrom, nil, nil
	}
	e := rn.entry(p)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rn == nil {
		e.reg = dvsync.NewTelemetryRegistry()
		e.ring = dvsync.NewFlightRecorder(dvsync.FlightConfig{})
		cfg := p.config(e.reg)
		cfg.Recorder = e.ring
		e.digest = dvsync.ConfigDigest(cfg)
		e.rn = dvsync.NewRunner(cfg)
	}
	if onSample != nil {
		reg := e.reg
		reg.OnSample(func(row dvsync.TelemetrySample) { onSample(reg, row) })
		defer reg.OnSample(nil)
	}
	e.rn.Run()
	ids := e.ring.DumpIDs(e.digest)
	rn.eng.IndexDumps(e.digest, func() dvsync.Config { return p.config(nil) }, ids)
	emit(e.reg)
	return 0, ids, nil
}
