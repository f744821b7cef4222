package sim

import (
	"fmt"
	"testing"

	"dvsync/internal/flight"
	"dvsync/internal/ipl"
	"dvsync/internal/par"
	"dvsync/internal/simtime"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// TestRunnerReuseMatchesFresh is the reuse tentpole contract: for every
// golden scenario, a Runner rewound and replayed — at -workers 1 and 4 —
// produces byte-identical trace JSONL, Perfetto, telemetry exports and
// Result scalars to a freshly wired run, on the first use and after.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	scs := ckptScenarios()
	type out struct {
		fresh  string
		reused []string
		err    error
	}
	defer par.SetWorkers(0)
	for _, w := range []int{1, 4} {
		outs := func() []out {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			return par.Map(len(scs), func(i int) out {
				sc := scs[i]
				fresh, err := straightDigest(sc.mk)
				if err != nil {
					return out{err: fmt.Errorf("straight: %w", err)}
				}
				cfg := sc.mk()
				rn := NewRunner(cfg)
				var reused []string
				for round := 0; round < 3; round++ {
					d, err := outputsDigest(cfg, rn.Run())
					if err != nil {
						return out{err: fmt.Errorf("reused round %d: %w", round, err)}
					}
					reused = append(reused, d)
				}
				return out{fresh: fresh, reused: reused}
			})
		}()
		for i, o := range outs {
			if o.err != nil {
				t.Fatalf("workers=%d %s: %v", w, scs[i].name, o.err)
			}
			for round, d := range o.reused {
				if d != o.fresh {
					t.Errorf("workers=%d %s round %d: reused digest %s != fresh %s",
						w, scs[i].name, round, d, o.fresh)
				}
			}
		}
	}
}

// TestRunnerTraceSwap checks the replica pattern: one Runner serving
// traces of different lengths and seeds — including one longer than the
// construction trace, forcing every arena to grow — matches a fresh run
// of each trace exactly, in any order.
func TestRunnerTraceSwap(t *testing.T) {
	p := ckptProfile()
	mkCfg := func(tr *workload.Trace) Config {
		return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4, Trace: tr,
			Predictor: ipl.Kalman{}, Recorder: trace.NewRecorder()}
	}
	trA := p.Generate(300, 7)
	trB := p.Generate(220, 99)
	trC := p.Generate(360, 5) // longer than the construction trace

	cfg := mkCfg(trA)
	rn := NewRunner(cfg)
	for _, step := range []struct {
		name string
		tr   *workload.Trace
	}{{"B", trB}, {"A", trA}, {"C-grow", trC}, {"B-again", trB}} {
		freshCfg := mkCfg(step.tr)
		want, err := outputsDigest(freshCfg, New(freshCfg).Run())
		if err != nil {
			t.Fatalf("%s fresh: %v", step.name, err)
		}
		got, err := outputsDigest(cfg, rn.RunTrace(step.tr))
		if err != nil {
			t.Fatalf("%s reused: %v", step.name, err)
		}
		if got != want {
			t.Errorf("%s: reused digest %s != fresh %s", step.name, got, want)
		}
	}
	if rn.Runs() != 4 {
		t.Errorf("Runs() = %d, want 4", rn.Runs())
	}
}

// reusedResumedDigest mirrors resumedDigest, except the run that pauses
// at cut is a Runner that already served (and was rewound from) a full
// run — the checkpoint-from-a-reused-Runner contract.
func reusedResumedDigest(mk func() Config, cut simtime.Time) (string, error) {
	cfg1 := mk()
	rn := NewRunner(cfg1)
	rn.Run() // dirty every component first
	rn.Reset()
	at, err := pauseAt(rn.System(), cut)
	if err != nil {
		return "", err
	}
	sys, cfg2, err := resumeFromMarker(mk, ConfigDigest(cfg1), at)
	if err != nil {
		return "", err
	}
	return outputsDigest(cfg2, sys.Run())
}

// TestCheckpointFromReusedRunner holds the resume contract on the reuse
// path: a rewound Runner pauses where a fresh system does, and the
// marker it leaves resumes into a run whose outputs match the straight
// run byte for byte, for every golden scenario.
func TestCheckpointFromReusedRunner(t *testing.T) {
	for _, sc := range ckptScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want, err := straightDigest(sc.mk)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			got, err := reusedResumedDigest(sc.mk, sc.cuts[0])
			if err != nil {
				t.Fatalf("cut %v: %v", sc.cuts[0], err)
			}
			if got != want {
				t.Errorf("cut %v: reused-runner resumed digest %s != straight %s",
					sc.cuts[0], got, want)
			}
		})
	}
}

// TestRunnerMapLocalStress drives per-worker Runner reuse through
// par.MapLocal under contention (run with -race): many replicas, few
// workers, every worker rewinding its own Runner. Results must match the
// serial fresh-run reference at every width.
func TestRunnerMapLocalStress(t *testing.T) {
	p := ckptProfile()
	const replicas = 24
	cfg := Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Predictor: ipl.Kalman{}}
	traces := make([]*workload.Trace, replicas)
	want := make([]float64, replicas)
	for i := range traces {
		traces[i] = p.Generate(120, int64(i)*17+1)
		c := cfg
		c.Trace = traces[i]
		want[i] = Run(c).FDPS()
	}
	defer par.SetWorkers(0)
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		got := par.MapLocal(replicas,
			func() *Runner {
				c := cfg
				c.Trace = traces[0]
				return NewRunner(c)
			},
			func(rn *Runner, i int) float64 {
				return rn.RunTrace(traces[i]).FDPS()
			})
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d replica %d: FDPS %v != fresh %v", w, i, got[i], want[i])
			}
		}
	}
	par.SetWorkers(0)
}

// eventsPerReusedRun is what one reused run of the benchmark workload
// (internal/bench's RunnerReuse) fires on the engine. It is an exact axis
// like the allocation budget of TestRunnerSteadyStateAllocs, and observers
// schedule nothing, so a recorder leaves it unchanged.
const eventsPerReusedRun = 1221

// TestRunnerEventsPerRun pins the engine events of a reused run of the
// benchmark workload, bare and with the flight recorder attached.
func TestRunnerEventsPerRun(t *testing.T) {
	p := workload.Profile{
		Name: "bench", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive,
	}
	tr := p.Generate(400, 1234)
	for _, c := range []struct {
		name string
		sink trace.Sink
	}{{"bare", nil}, {"flight", flight.New(flight.Config{})}} {
		rn := NewRunner(Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
			Trace: tr, Predictor: ipl.Kalman{}, Recorder: c.sink})
		rn.Run()
		rn.Run()
		if got := rn.System().Engine().Fired(); got != eventsPerReusedRun {
			t.Errorf("%s: %d engine events per reused run, want %d", c.name, got, eventsPerReusedRun)
		}
	}
}
