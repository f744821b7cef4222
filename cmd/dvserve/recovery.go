package main

import (
	"errors"
	"sync"
	"sync/atomic"

	"dvsync"
	"dvsync/internal/checkpoint"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
)

// runner executes scenario runs. With a checkpoint directory configured
// it periodically writes a replay marker for each run, and when a previous
// process died mid-run it resumes the identical scenario from its last
// good marker by replaying the run to it — the deterministic core
// guarantees a recovered run's exports, and every row it streams, are
// byte-identical to an uninterrupted one's.
type runner struct {
	dir   string           // checkpoint directory; empty disables recovery
	every simtime.Duration // marker cadence in virtual time (0: 500 ms)

	// mu serialises checkpointed runs: concurrent requests for the same
	// scenario would otherwise race on the same marker slot.
	mu sync.Mutex

	// cmu guards the finished-run cache (serve/entry); cache maps a
	// scenario parameter set to its entry and order tracks FIFO eviction
	// age.
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

	// crashAfter, when non-zero, aborts the run right after the first
	// checkpoint at or past this instant — test hook for the recovery path.
	crashAfter simtime.Time
}

// errSimulatedCrash marks the crashAfter test-hook abort.
var errSimulatedCrash = errors.New("simulated crash after checkpoint")

// scenario executes one run with a fresh registry attached. The run is a
// pure function of p: repeated scrapes of the same parameters return
// byte-identical exports, whether or not a crash interrupted one of them.
func (rn *runner) scenario(p params) (*dvsync.TelemetryRegistry, simtime.Time, error) {
	reg := dvsync.NewTelemetryRegistry()
	resumedFrom, err := rn.run(p, reg)
	return reg, resumedFrom, err
}

// run executes p with reg attached and reports where it resumed from
// (zero for a fresh start).
func (rn *runner) run(p params, reg *dvsync.TelemetryRegistry) (simtime.Time, error) {
	cfg := p.config(reg)
	if rn.dir == "" {
		dvsync.Run(cfg)
		return 0, nil
	}
	rn.mu.Lock()
	defer rn.mu.Unlock()
	digest := sim.ConfigDigest(cfg)
	store, err := checkpoint.NewStore(rn.dir, "run-"+digest[:16])
	if err != nil {
		return 0, err
	}
	sys, resumedFrom, err := rn.open(cfg, store, digest)
	if err != nil {
		return 0, err
	}
	every := rn.every
	if every <= 0 {
		every = simtime.Duration(dvsync.FromMillis(500))
	}
	if _, err := sys.RunCheckpointed(every, func(at simtime.Time) error {
		if err := store.SaveMarker(digest, at); err != nil {
			return err
		}
		if rn.crashAfter > 0 && at >= rn.crashAfter {
			return errSimulatedCrash
		}
		return nil
	}); err != nil {
		return resumedFrom, err
	}
	// A finished run invalidates its markers: the next identical request
	// computes from scratch.
	if err := store.Clear(); err != nil {
		return resumedFrom, err
	}
	return resumedFrom, nil
}

// open replays the system to the slot's newest usable marker, or starts
// fresh when the slot is empty or holds no usable marker — a corrupt,
// foreign or old-schema checkpoint must never wedge a scenario that can
// simply be recomputed. The replay refills reg from the start of the run,
// so the export and every row the run hands OnSample are the straight
// run's.
func (rn *runner) open(cfg dvsync.Config, store *checkpoint.Store, digest string) (*sim.System, simtime.Time, error) {
	at, err := store.LoadMarker(digest)
	if err != nil {
		return sim.New(cfg), 0, nil
	}
	sys, err := sim.Resume(cfg, at)
	if err != nil {
		return nil, 0, err
	}
	return sys, at, nil
}
