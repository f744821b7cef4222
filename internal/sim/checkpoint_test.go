package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// errPaused aborts pauseAt's checkpointed run at its first pause.
var errPaused = errors.New("paused")

// pauseAt runs sys checkpointed until its first pause at cut, as a run
// that crashes right after writing its first marker does, and returns the
// instant the pause handed the callback.
func pauseAt(sys *System, cut simtime.Time) (simtime.Time, error) {
	var at simtime.Time
	_, err := sys.RunCheckpointed(simtime.Duration(cut), func(t simtime.Time) error {
		at = t
		return errPaused
	})
	if !errors.Is(err, errPaused) {
		return 0, fmt.Errorf("run ended before its pause at %v (err %v)", cut, err)
	}
	if at != cut {
		return 0, fmt.Errorf("paused at %v, want %v", at, cut)
	}
	return at, nil
}

// resumeFromMarker seals the replay marker a run of cfgDigest paused at
// at leaves behind into a real checkpoint envelope, decodes it, checks it
// against a freshly built config (Marker runs VerifyConfig), and resumes
// a fresh system from the marker's instant.
func resumeFromMarker(mk func() Config, cfgDigest string, at simtime.Time) (*System, Config, error) {
	var buf bytes.Buffer
	if err := checkpoint.EncodeMarker(&buf, cfgDigest, at); err != nil {
		return nil, Config{}, fmt.Errorf("encode marker: %w", err)
	}
	env, err := checkpoint.Decode(&buf)
	if err != nil {
		return nil, Config{}, fmt.Errorf("decode marker: %w", err)
	}
	cfg := mk()
	at, err = env.Marker(ConfigDigest(cfg))
	if err != nil {
		return nil, Config{}, err
	}
	sys, err := Resume(cfg, at)
	if err != nil {
		return nil, Config{}, fmt.Errorf("resume at %v: %w", at, err)
	}
	return sys, cfg, nil
}

// resumedDigest runs a scenario until its checkpoint pause at cut, then
// resumes a second, freshly wired system through the marker that pause
// would write and runs it to completion.
func resumedDigest(mk func() Config, cut simtime.Time) (string, error) {
	cfg1 := mk()
	at, err := pauseAt(New(cfg1), cut)
	if err != nil {
		return "", err
	}
	sys, cfg2, err := resumeFromMarker(mk, ConfigDigest(cfg1), at)
	if err != nil {
		return "", err
	}
	return outputsDigest(cfg2, sys.Run())
}

// TestResumeEqualsStraightRun is the resume contract: for every golden
// scenario and every cut instant, run(0→T) and
// run(0→t)+marker+resume(t→T) produce byte-identical trace, Perfetto,
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
// and 4: the resume path shares no state across goroutines, so digests
// must not depend on the parallel width the sweep runs under.
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
// loop: pausing every 100 virtual ms to seal a marker must not perturb
// the run, and the store rotation must leave a loadable latest marker
// that resumes to the same final digest.
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
	var last simtime.Time
	res, err := New(cfg).RunCheckpointed(100*simtime.Millisecond, func(at simtime.Time) error {
		snaps++
		last = at
		return store.SaveMarker(cfgDigest, at)
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if snaps < 10 {
		t.Fatalf("expected tens of periodic markers, got %d", snaps)
	}
	if want := simtime.Time(0).Add(simtime.Duration(snaps) * 100 * simtime.Millisecond); last != want {
		t.Errorf("last pause at %v, want %v on the 100 ms grid", last, want)
	}
	got, err := outputsDigest(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("checkpointed run digest %s != straight %s", got, want)
	}

	cfg2 := mk()
	at, err := store.LoadMarker(ConfigDigest(cfg2))
	if err != nil {
		t.Fatalf("loading last marker: %v", err)
	}
	if at != last {
		t.Errorf("store holds a marker at %v, want the last pause %v", at, last)
	}
	sys, err := Resume(cfg2, at)
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
// channel. The replayed system must stand in the tripped state at the cut
// and go on to reproduce the recovery transition at the same instant.
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
	cfg1 := mk()
	at, err := pauseAt(New(cfg1), cut)
	if err != nil {
		t.Fatal(err)
	}
	sys, cfg2, err := resumeFromMarker(mk, ConfigDigest(cfg1), at)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.fallbackActive {
		t.Errorf("system replayed to %v should be inside the fallback window", cut)
	}
	if sys.monitor == nil || !sys.monitor.Tripped() {
		t.Errorf("system replayed to %v should hold a tripped health monitor", cut)
	}
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := outputsDigest(cfg2, sys.Run())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("mid-fallback resume digest %s != straight %s", got, want)
	}
}

// TestSnapshotMidFaultEpisode checkpoints inside active fault episodes
// (stall at 900ms, jitter at 1.7s, drift at 3s): the replay must leave the
// injector's per-class RNG streams at the straight run's draw position.
func TestSnapshotMidFaultEpisode(t *testing.T) {
	mk := func() Config { return faultedCkptConfig(ModeDVSync) }
	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []simtime.Time{msT(900), msT(1700), msT(3000)} {
		inside := false
		for _, ref := range mk().Faults.Episodes() {
			inside = inside || (ref.Episode.Start <= cut && cut < ref.Episode.End)
		}
		if !inside {
			t.Fatalf("cut %v lies outside every fault episode", cut)
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

// TestSnapshotSweep slides the cut instant across a whole scenario in
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

// TestSnapshotErrors pins the misuse surface: an invalid config, a
// negative instant, a marker for another config and a bad checkpoint
// interval all return errors, never panic; a marker past the end of the
// run replays the whole run.
func TestSnapshotErrors(t *testing.T) {
	mk := ckptScenarios()[0].mk
	bad := mk()
	bad.Buffers = 1
	if _, err := Resume(bad, msT(1000)); err == nil {
		t.Error("resume under an invalid config should fail")
	}
	if _, err := Resume(mk(), -1); err == nil {
		t.Error("resume at a negative instant should fail")
	}
	var buf bytes.Buffer
	if err := checkpoint.EncodeMarker(&buf, ConfigDigest(mk()), msT(1000)); err != nil {
		t.Fatal(err)
	}
	env, err := checkpoint.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	other := mk()
	other.Metrics = telemetry.NewRegistry()
	var de *checkpoint.DigestError
	if _, err := env.Marker(ConfigDigest(other)); !errors.As(err, &de) {
		t.Errorf("marker under a config with different wiring: %v, want a DigestError", err)
	}
	noop := func(simtime.Time) error { return nil }
	if _, err := New(mk()).RunCheckpointed(0, noop); err == nil {
		t.Error("a zero checkpoint interval should fail")
	}
	if _, err := New(mk()).RunCheckpointed(simtime.Second, nil); err == nil {
		t.Error("RunCheckpointed without a callback should fail")
	}

	want, err := straightDigest(mk)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mk()
	sys, err := Resume(cfg, simtime.Time(1<<62))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := outputsDigest(cfg, sys.Run()); err != nil || got != want {
		t.Errorf("resume past the end: digest %s (err %v), want the straight run's %s", got, err, want)
	}
}
