package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"dvsync/internal/checkpoint"
	"dvsync/internal/fault"
	"dvsync/internal/health"
	"dvsync/internal/ipl"
	"dvsync/internal/ltpo"
	"dvsync/internal/obs"
	"dvsync/internal/par"
	"dvsync/internal/simtime"
	"dvsync/internal/telemetry"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

// ckptScenario is one golden scenario for the resume-equals-straight-run
// contract. mk must build a FRESH config on every call (recorder and
// registry are stateful), and cuts are mid-run snapshot instants.
type ckptScenario struct {
	name string
	mk   func() Config
	cuts []simtime.Time
}

func ckptProfile() workload.Profile {
	return workload.Profile{
		Name: "checkpoint", ShortMeanMs: 5, ShortSigmaMs: 2,
		LongRatio: 0.06, LongScaleMs: 20, LongAlpha: 1.8,
		Burstiness: 0.3, UIShare: 0.4, Class: workload.Interactive,
	}
}

func faultedCkptConfig(mode Mode) Config {
	p := ckptProfile()
	cfg := Config{
		Mode: mode, Panel: panel60(), Buffers: 4,
		Trace:     p.Generate(400, 1234),
		Predictor: ipl.Kalman{},
		Recorder:  trace.NewRecorder(),
		Faults: &fault.Config{
			Seed:        99,
			Stalls:      []fault.Episode{{Start: msT(500), End: msT(1200), Severity: 1.5}},
			VSyncJitter: []fault.Episode{{Start: msT(1300), End: msT(2000), Severity: 1}},
			MissedVSync: []fault.Episode{{Start: msT(2100), End: msT(2700), Severity: 0.3}},
			ClockDrift:  []fault.Episode{{Start: msT(2800), End: msT(3600), Severity: 2000}},
			AllocFail:   []fault.Episode{{Start: msT(3700), End: msT(4400), Severity: 0.4}},
		},
	}
	if mode == ModeDVSync {
		cfg.DTV.MaxAbsErrMs = 8
		cfg.FPEOverloadAfter = 4
		cfg.EnableFallback = true
		cfg.Health = health.Config{MaxFDPS: 6, MaxCalibErrMs: 12,
			StallTimeout: 250 * simtime.Millisecond}
	}
	return cfg
}

func ltpoCkptConfig() Config {
	p := ckptProfile()
	panel := panel60()
	panel.RefreshHz = 120
	return Config{
		Mode: ModeDVSync, Panel: panel, Buffers: 4,
		Trace:      p.Generate(400, 5),
		LTPOPolicy: ltpo.DefaultUIPolicy(),
		LTPOVelocity: func(tt simtime.Time) float64 {
			return 3000 * math.Exp(-tt.Seconds()*1.2)
		},
		Recorder: trace.NewRecorder(),
	}
}

func ckptScenarios() []ckptScenario {
	return []ckptScenario{
		{
			name: "vsync-steady",
			cuts: []simtime.Time{msT(400), msT(2000)},
			mk: func() Config {
				p := ckptProfile()
				return Config{Mode: ModeVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-steady",
			cuts: []simtime.Time{msT(400), msT(2000)},
			mk: func() Config {
				p := ckptProfile()
				return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Predictor: ipl.Kalman{},
					Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-faulted-fallback",
			cuts: []simtime.Time{msT(900), msT(2400), msT(4000)},
			mk:   func() Config { return faultedCkptConfig(ModeDVSync) },
		},
		{
			name: "vsync-faulted",
			cuts: []simtime.Time{msT(900), msT(3100)},
			mk:   func() Config { return faultedCkptConfig(ModeVSync) },
		},
		{
			name: "vsync-stale-drop",
			cuts: []simtime.Time{msT(300), msT(900)},
			mk: func() Config {
				costs := repeat(5, 40)
				costs = append(costs, repeat(34, 12)...)
				costs = append(costs, repeat(5, 60)...)
				return Config{Mode: ModeVSync, Panel: panel60(), Buffers: 4,
					Trace:            scripted("stale", costs...),
					DropStaleBuffers: true, Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "jitter-skew-offset",
			cuts: []simtime.Time{msT(700), msT(2500)},
			mk: func() Config {
				p := ckptProfile()
				panel := panel60()
				panel.JitterStdDev = 80 * simtime.Microsecond
				panel.JitterSeed = 42
				panel.PeriodSkewPPM = 350
				return Config{Mode: ModeDVSync, Panel: panel, Buffers: 4,
					Trace: p.Generate(300, 11), AppOffset: 2 * simtime.Millisecond,
					Recorder: trace.NewRecorder()}
			},
		},
		{
			name: "dvsync-ltpo",
			cuts: []simtime.Time{msT(250), msT(1500)},
			mk:   ltpoCkptConfig,
		},
		{
			name: "dvsync-metrics",
			cuts: []simtime.Time{msT(400), msT(2000)},
			mk: func() Config {
				p := ckptProfile()
				return Config{Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
					Trace: p.Generate(300, 7), Predictor: ipl.Kalman{},
					Recorder: trace.NewRecorder(), Metrics: telemetry.NewRegistry()}
			},
		},
	}
}

func frameSeqs(r *Result) []int {
	out := make([]int, len(r.Presented))
	for i, f := range r.Presented {
		out[i] = f.Seq
	}
	return out
}

// outputsDigest folds every observable output of a finished run — trace
// JSONL, Perfetto export, telemetry JSON + Prometheus exposition, and the
// full result summary — into one hex digest.
func outputsDigest(cfg Config, r *Result) (string, error) {
	var buf bytes.Buffer
	if cfg.Recorder != nil {
		if err := trace.WriteEventsJSONL(&buf, cfg.Recorder.Events()); err != nil {
			return "", fmt.Errorf("trace: %w", err)
		}
		if err := obs.ExportPerfetto(cfg.Recorder, &buf); err != nil {
			return "", fmt.Errorf("perfetto: %w", err)
		}
	}
	if cfg.Metrics != nil {
		if err := cfg.Metrics.WriteJSON(&buf); err != nil {
			return "", fmt.Errorf("telemetry json: %w", err)
		}
		if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
			return "", fmt.Errorf("telemetry prom: %w", err)
		}
	}
	buf.WriteString(resultLine(r))
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// resultLine renders the full result summary outputsDigest folds in.
func resultLine(r *Result) string {
	return fmt.Sprintf("fdps=%v janks=%+v skipped=%d presented=%v stuffed=%d direct=%d "+
		"decoupled=%d vsyncpath=%d work=%v overhead=%v latency=%v fallbacks=%+v "+
		"counters=%+v missed=%d allocfailed=%d reanchors=%d dtvmissed=%d backoffs=%d "+
		"startfail=%d stale=%d completed=%v edges=%d first=%v last=%v watchdog=%q\n",
		r.FDPS(), r.Janks, r.Skipped, frameSeqs(r), r.Stuffed, r.Direct,
		r.DecoupledFrames, r.VSyncPathFrames, r.ExecutedWork, r.OverheadWork,
		r.LatencyMs, r.Fallbacks, r.FaultCounters, r.MissedEdges, r.AllocFailed,
		r.DTVReAnchors, r.DTVMissedEdges, r.FPEBackoffs, r.FPEStartFailures,
		r.StaleDropped, r.Completed, r.EdgesInWindow, r.FirstLatch, r.LastLatch,
		r.WatchdogTripped)
}

// straightDigest runs a scenario uninterrupted.
func straightDigest(mk func() Config) (string, error) {
	cfg := mk()
	res, err := TryRun(cfg)
	if err != nil {
		return "", err
	}
	return outputsDigest(cfg, res)
}

// resumedDigest runs a scenario to cut, seals the snapshot through a real
// checkpoint envelope (JSON payload, digest verification included), then
// resumes a second, freshly wired system from the decoded state and runs
// it to completion.
func resumedDigest(mk func() Config, cut simtime.Time) (string, error) {
	cfg1 := mk()
	st, err := New(cfg1).Snapshot(cut)
	if err != nil {
		return "", fmt.Errorf("snapshot at %v: %w", cut, err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return "", fmt.Errorf("marshal state: %w", err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, ConfigDigest(cfg1), st.At, nil, payload); err != nil {
		return "", fmt.Errorf("encode envelope: %w", err)
	}
	env, err := checkpoint.Decode(&buf)
	if err != nil {
		return "", fmt.Errorf("decode envelope: %w", err)
	}
	cfg2 := mk()
	if err := env.VerifyConfig(ConfigDigest(cfg2)); err != nil {
		return "", err
	}
	var st2 State
	if err := env.DecodeState(&st2); err != nil {
		return "", err
	}
	sys, err := Resume(cfg2, &st2)
	if err != nil {
		return "", fmt.Errorf("resume at %v: %w", cut, err)
	}
	return outputsDigest(cfg2, sys.Run())
}

// TestResumeEqualsStraightRun is the tentpole contract: for every golden
// scenario and every snapshot instant, run(0→T) and
// run(0→t)+snapshot+resume(t→T) produce byte-identical trace, Perfetto,
// telemetry and result digests.
func TestResumeEqualsStraightRun(t *testing.T) {
	for _, sc := range ckptScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want, err := straightDigest(sc.mk)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			for _, cut := range sc.cuts {
				got, err := resumedDigest(sc.mk, cut)
				if err != nil {
					t.Fatalf("cut %v: %v", cut, err)
				}
				if got != want {
					t.Errorf("cut %v: resumed digest %s != straight %s", cut, got, want)
				}
			}
		})
	}
}

// TestResumeEquivalenceAcrossWorkers re-checks the contract at -workers 1
// and 4: the checkpoint pipeline shares no state across goroutines, so
// digests must not depend on the parallel width the sweep runs under.
func TestResumeEquivalenceAcrossWorkers(t *testing.T) {
	scs := ckptScenarios()
	type out struct {
		straight, resumed string
		err               error
	}
	runAll := func() []out {
		return par.Map(len(scs), func(i int) out {
			sc := scs[i]
			var o out
			if o.straight, o.err = straightDigest(sc.mk); o.err != nil {
				return o
			}
			o.resumed, o.err = resumedDigest(sc.mk, sc.cuts[0])
			return o
		})
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(1)
	serial := runAll()
	par.SetWorkers(4)
	wide := runAll()
	for i, sc := range scs {
		for width, got := range map[string]out{"workers=1": serial[i], "workers=4": wide[i]} {
			if got.err != nil {
				t.Fatalf("%s %s: %v", sc.name, width, got.err)
			}
			if got.resumed != got.straight {
				t.Errorf("%s %s: resumed %s != straight %s", sc.name, width, got.resumed, got.straight)
			}
		}
		if serial[i].straight != wide[i].straight {
			t.Errorf("%s: straight digest differs across widths", sc.name)
		}
	}
}

// TestRunCheckpointedMatchesRun drives the periodic auto-checkpointing
// loop: snapshots every 100 virtual ms must not perturb the run, every
// captured state must resume to the same final digest, and the store
// rotation must leave a loadable latest snapshot.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	mk := func() Config { return faultedCkptConfig(ModeDVSync) }
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}

	cfg := mk()
	store, err := checkpoint.NewStore(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	cfgDigest := ConfigDigest(cfg)
	var snaps int
	res, err := New(cfg).RunCheckpointed(100*simtime.Millisecond, func(st *State) error {
		snaps++
		payload, err := json.Marshal(st)
		if err != nil {
			return err
		}
		return store.Save(cfgDigest, int64(st.At), nil, payload)
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if snaps < 10 {
		t.Fatalf("expected tens of periodic snapshots, got %d", snaps)
	}
	got, err := outputsDigest(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("checkpointed run digest %s != straight %s", got, want)
	}

	env, err := store.Load()
	if err != nil {
		t.Fatalf("loading last snapshot: %v", err)
	}
	if err := env.VerifyConfig(cfgDigest); err != nil {
		t.Fatal(err)
	}
	var st State
	if err := env.DecodeState(&st); err != nil {
		t.Fatal(err)
	}
	cfg2 := mk()
	sys, err := Resume(cfg2, &st)
	if err != nil {
		t.Fatalf("resume from store: %v", err)
	}
	got2, err := outputsDigest(cfg2, sys.Run())
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Errorf("store-resumed digest %s != straight %s", got2, want)
	}
}

// TestSnapshotMidFallback pins the awkwardest checkpoint instant of the
// robustness stack: while the supervisor holds the system on the VSync
// channel. The snapshot must carry the tripped state and resume must
// reproduce the recovery transition at the same instant.
func TestSnapshotMidFallback(t *testing.T) {
	mk := func() Config { return faultedCkptConfig(ModeDVSync) }
	cfg := mk()
	res, err := TryRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cut simtime.Time
	found := false
	for _, f := range res.Fallbacks {
		if f.To == ModeVSync {
			cut = f.At.Add(20 * simtime.Millisecond)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("scenario produced no fallback trip; pick a harsher fault config")
	}
	st, err := New(mk()).Snapshot(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Driver.FallbackActive {
		t.Errorf("snapshot at %v should be inside the fallback window", cut)
	}
	if st.Health == nil || !st.Health.Tripped {
		t.Errorf("snapshot at %v should carry a tripped health monitor", cut)
	}
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumedDigest(mk, cut)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("mid-fallback resume digest %s != straight %s", got, want)
	}
}

// TestSnapshotMidFaultEpisode checkpoints inside active fault episodes
// (stall at 900ms, drift at 3s): the injector's per-class RNG streams must
// restore to the exact draw position.
func TestSnapshotMidFaultEpisode(t *testing.T) {
	mk := func() Config { return faultedCkptConfig(ModeDVSync) }
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []simtime.Time{msT(900), msT(1700), msT(3000)} {
		st, err := New(mk()).Snapshot(cut)
		if err != nil {
			t.Fatalf("snapshot at %v: %v", cut, err)
		}
		if st.Fault == nil {
			t.Fatalf("snapshot at %v carries no injector state", cut)
		}
		got, err := resumedDigest(mk, cut)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if got != want {
			t.Errorf("cut %v: resumed digest %s != straight %s", cut, got, want)
		}
	}
}

// TestSnapshotOnRateChangeEdge checkpoints exactly at an LTPO rate-change
// instant — the edge where the panel period, the coordinator state and the
// pending edge event all just changed.
func TestSnapshotOnRateChangeEdge(t *testing.T) {
	cfg := ltpoCkptConfig()
	res, err := TryRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("LTPO scenario did not complete")
	}
	var cuts []simtime.Time
	for _, ev := range cfg.Recorder.Events() {
		if ev.Kind == trace.RateChange {
			cuts = append(cuts, ev.At)
		}
	}
	if len(cuts) == 0 {
		t.Fatal("LTPO scenario produced no rate changes; steepen the velocity decay")
	}
	if len(cuts) > 3 {
		cuts = cuts[:3]
	}
	want, err := straightDigest(ltpoCkptConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		got, err := resumedDigest(ltpoCkptConfig, cut)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if got != want {
			t.Errorf("rate-change cut %v: resumed digest %s != straight %s", cut, got, want)
		}
	}
}

// TestSnapshotSweep slides the snapshot instant across a whole scenario in
// coarse steps — every quiescent boundary must satisfy the contract, not
// just hand-picked ones.
func TestSnapshotSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is minutes of simulated time")
	}
	mk := func() Config { return faultedCkptConfig(ModeDVSync) }
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	for ms := 250.0; ms <= 4250; ms += 500 {
		cut := msT(ms)
		got, err := resumedDigest(mk, cut)
		if err != nil {
			t.Fatalf("cut %v: %v", cut, err)
		}
		if got != want {
			t.Errorf("cut %v: resumed digest %s != straight %s", cut, got, want)
		}
	}
}

// TestSnapshotErrors pins the misuse surface: past instants, finished
// runs, and resume under a mismatched configuration all return typed
// errors, never panic.
func TestSnapshotErrors(t *testing.T) {
	mk := ckptScenarios()[0].mk
	sys := New(mk())
	if _, err := sys.Snapshot(msT(1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(msT(500)); err == nil {
		t.Error("snapshot in the past should fail")
	}
	if res := sys.Run(); res == nil || !res.Completed {
		t.Fatal("run after snapshot should complete")
	}
	if _, err := sys.Snapshot(simtime.Time(1 << 62)); err == nil {
		t.Error("snapshot after completion should fail")
	}
	// A finished run with a registry has no sampling boundaries left.
	withMetrics := mk()
	withMetrics.Metrics = telemetry.NewRegistry()
	sys = New(withMetrics)
	sys.Run()
	if _, err := sys.Snapshot(simtime.Time(1 << 62)); !errors.Is(err, ErrRunFinished) {
		t.Errorf("snapshot after a completed run with a registry: %v, want ErrRunFinished", err)
	}

	st, err := New(mk()).Snapshot(msT(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong wiring: the snapshot has no telemetry state but the config
	// wires a registry.
	cfg := mk()
	cfg.Metrics = telemetry.NewRegistry()
	if _, err := Resume(cfg, st); err == nil {
		t.Error("resume with mismatched component wiring should fail")
	}
	if _, err := Resume(mk(), nil); err == nil {
		t.Error("resume from nil state should fail")
	}
	// A mangled frame reference must surface as an error, not a panic.
	st.Accum.PresentedSeqs = append(st.Accum.PresentedSeqs, 99999)
	if _, err := Resume(mk(), st); err == nil {
		t.Error("resume with a dangling frame reference should fail")
	}
}
