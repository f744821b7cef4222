package sim

import "dvsync/internal/workload"

// Runner is a reusable run context: it wires the full simulation graph —
// event engine, panel, signal distributor, buffer queue, producer arena,
// D-VSync core, telemetry registry and result buffers — exactly once, and
// replays runs against it. Construction is the expensive part of a
// simulation at experiment scale (every wire-up allocates the whole object
// graph); Run rewinds the graph in place instead, so once the first run
// has grown every buffer, a bare run allocates nothing
// (TestRunnerSteadyStateAllocs pins it at 0).
//
// The contract is strict equivalence, not approximation: a run replayed
// through a reused Runner produces byte-identical outputs — Result
// scalars, presented-frame sequence, trace JSONL, Perfetto export and
// telemetry rows — to New(cfg).Run() on the same inputs. The golden-
// scenario tests in runner_test.go hold that line.
//
// Reuse is explicit, not pooled: callers own the Runner and its lifetime
// (typically one per par worker, via par.MapLocal). A Runner is NOT safe
// for concurrent use; concurrent runs need one Runner each.
//
// Between runs only the trace may change (RunTrace) — replica loops draw
// independent frame sequences from one calibrated scenario. Everything
// else (panel, faults, policies, hooks) is fixed at construction; runs
// needing a different configuration need a new Runner.
type Runner struct {
	sys  *System
	runs int
}

// NewRunner validates the config and wires the graph once. Invalid
// configurations panic, exactly like New.
func NewRunner(cfg Config) *Runner {
	return &Runner{sys: New(cfg)}
}

// Run replays the configured scenario and returns the collected result.
// Every call — including the first — starts from a rewound graph, so a
// Runner needs no "already used" bookkeeping.
//
// The returned Result (and its slices) is owned by the Runner and is
// INVALIDATED by the next Run/RunTrace call: callers that keep results
// across runs must copy what they need first, exactly as with the
// scratch buffers of any reused context.
//
//dvlint:hotpath runs once per reused run
func (r *Runner) Run() *Result {
	return r.RunTrace(r.sys.cfg.Trace)
}

// RunTrace replays the scenario against a different workload trace — the
// replica pattern: one calibrated configuration, independent frame
// sequences. The trace must be non-empty. The result ownership rule of
// Run applies.
//
//dvlint:hotpath runs once per reused run
func (r *Runner) RunTrace(tr *workload.Trace) *Result {
	r.sys.reset(tr)
	r.runs++
	return r.sys.Run()
}

// DumpIDs names, under digest, the anomaly dumps a default flight ring
// (flight.New(flight.Config{})) would have taken on the last run: entry i
// is that ring's DumpIDs(digest)[i]. It needs no ring attached —
// observers do not change a run, so the ids are the same with or without
// sinks — and is defined once Run or RunTrace has returned.
func (r *Runner) DumpIDs(digest string) []string { return r.sys.dumpIDs(digest) }

// System exposes the wired simulation, so callers can read the finished
// run's engine counters (System().Engine().Fired()). It is rewound by the
// next Run or RunTrace.
func (r *Runner) System() *System { return r.sys }

// Runs reports how many runs this Runner has served — the observability
// hook for reuse-path tests and stats.
func (r *Runner) Runs() int { return r.runs }
