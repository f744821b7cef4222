package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dvsync"
	"dvsync/internal/checkpoint"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
)

// runner executes scenario runs. With a checkpoint directory configured
// it periodically snapshots each run, and when a previous process died
// mid-run it resumes the identical scenario from its last good checkpoint
// instead of restarting — the deterministic core guarantees a recovered
// run's exports are byte-identical to an uninterrupted one's.
type runner struct {
	dir   string           // checkpoint directory; empty disables recovery
	every simtime.Duration // snapshot cadence in virtual time (0: 500 ms)

	// mu serialises checkpointed runs: concurrent requests for the same
	// scenario would otherwise race on the same snapshot slot.
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
	if _, err := sys.RunCheckpointed(every, func(st *sim.State) error {
		payload, err := json.Marshal(st)
		if err != nil {
			return err
		}
		if err := store.Save(digest, int64(st.At), nil, payload); err != nil {
			return err
		}
		if rn.crashAfter > 0 && st.At >= rn.crashAfter {
			return errSimulatedCrash
		}
		return nil
	}); err != nil {
		return resumedFrom, err
	}
	// A finished run invalidates its snapshots: the next identical request
	// must compute from scratch, not replay a completed run's tail.
	if err := store.Clear(); err != nil {
		return resumedFrom, err
	}
	return resumedFrom, nil
}

// open restores the system from the slot's newest usable snapshot, or
// starts fresh when the slot is empty or its snapshots are unreadable —
// a corrupt checkpoint must never wedge a scenario that can simply be
// recomputed. A snapshot that decodes but fails restore is discarded and
// reported: the registry may be partially populated by then, so silently
// rerunning on it would corrupt the export.
func (rn *runner) open(cfg dvsync.Config, store *checkpoint.Store, digest string) (*sim.System, simtime.Time, error) {
	env, err := store.Load()
	if err != nil {
		return sim.New(cfg), 0, nil
	}
	if err := env.VerifyConfig(digest); err != nil {
		return sim.New(cfg), 0, nil
	}
	var st sim.State
	if err := env.DecodeState(&st); err != nil {
		return sim.New(cfg), 0, nil
	}
	sys, err := sim.Resume(cfg, &st)
	if err != nil {
		store.Clear() //dvlint:ignore errflow the snapshot is already known bad; the load error is the one worth reporting
		return nil, 0, fmt.Errorf("resume from %v failed, checkpoint discarded: %w", env.At(), err)
	}
	return sys, env.At(), nil
}
