// Command dvsim runs a single rendering simulation and prints its metrics:
// a quick way to explore how workload shape, buffer count and scheduler
// interact.
//
// Usage examples:
//
//	dvsim -mode dvsync -hz 120 -buffers 5 -frames 2000
//	dvsim -mode vsync -short-mean 7 -long-ratio 0.08 -long-scale 25
//	dvsim -mode both -seed 7
//	dvsim -app QQMusic            # a Figure 11 app, paper-calibrated
//	dvsim -usecase "cls notif ctr" # an Appendix A case (scripted run)
//	dvsim -game "8 Ball Pool"      # a Figure 14 game
//	dvsim -fault stall -fault-severity 0.8            # inject one fault class
//	dvsim -mode dvsync -fault alloc -fallback          # with §4.5 supervision
package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"dvsync"
	"dvsync/internal/autotest"
	"dvsync/internal/checkpoint"
	"dvsync/internal/exp"
	"dvsync/internal/flight"
	"dvsync/internal/scenarios"
	"dvsync/internal/sim"
	"dvsync/internal/simtime"
	"dvsync/internal/workload"
)

func main() {
	var (
		mode      = flag.String("mode", "both", "vsync, dvsync, or both")
		hz        = flag.Int("hz", 60, "panel refresh rate")
		buffers   = flag.Int("buffers", 0, "buffer-queue size (0: 3 for vsync, 4 for dvsync)")
		limit     = flag.Int("prerender", 0, "pre-render limit (0: buffers-1)")
		frames    = flag.Int("frames", 1000, "workload length in frames")
		seed      = flag.Int64("seed", 1, "workload seed")
		shortMean = flag.Float64("short-mean", 0, "short-frame mean cost ms (0: 40% of period)")
		shortSig  = flag.Float64("short-sigma", 0, "short-frame cost stddev ms (0: 13% of period)")
		longRatio = flag.Float64("long-ratio", 0.05, "key-frame probability")
		longScale = flag.Float64("long-scale", 0, "key-frame Pareto scale ms (0: 1.5 periods)")
		longAlpha = flag.Float64("long-alpha", 2.3, "key-frame Pareto shape")
		burst     = flag.Float64("burst", 0.2, "key-frame clustering P(long|long)")
		uiShare   = flag.Float64("ui-share", 0.35, "UI-thread share of frame cost")
		jitterUs  = flag.Float64("jitter-us", 0, "panel edge jitter stddev (µs)")
		appName   = flag.String("app", "", "run a Figure 11 app scenario by name")
		caseName  = flag.String("usecase", "", "run an Appendix A use case by abbreviation")
		gameName  = flag.String("game", "", "run a Figure 14 game scenario by name")
		traceIn   = flag.String("trace-file", "", "replay a recorded workload trace (JSON, see workload.WriteJSON)")
		traceOut  = flag.String("dump-trace", "", "write the generated workload trace as JSON and exit")
		faultCls  = flag.String("fault", "", "inject one fault class (see -fault-list)")
		faultSev  = flag.Float64("fault-severity", 0.5, "normalised fault severity in [0, 1]")
		faultFrom = flag.Float64("fault-start", 500, "fault window start (ms)")
		faultTo   = flag.Float64("fault-end", 0, "fault window end (ms, 0: rest of the run)")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection RNG seed")
		faultList = flag.Bool("fault-list", false, "list fault classes and exit")
		fallback  = flag.Bool("fallback", false, "enable the supervised D-VSync→VSync fallback (§4.5)")

		ckptDir   = flag.String("checkpoint-dir", "", "periodically checkpoint the run into this directory")
		ckptEvery = flag.Float64("checkpoint-every", 500, "checkpoint interval (virtual ms, with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir by replaying the run to it (fresh start if none)")
		digestOut = flag.Bool("trace-digest", false, "record a structured trace and print its sha256 (for resume-equivalence checks)")
		flightOut = flag.String("flight", "", "attach the flight recorder and write its anomaly dumps into this directory")
		crashMs   = flag.Float64("crash-after-ms", 0, "exit(3) after the first checkpoint at or past this virtual time (crash-recovery testing, with -checkpoint-dir)")
	)
	flag.Parse()

	// Validate -mode before any work: an unknown mode used to slip through
	// unnoticed on code paths that only consult it late (or never, like
	// -dump-trace), silently behaving like the default.
	switch *mode {
	case "vsync", "dvsync", "both":
	default:
		fmt.Fprintf(os.Stderr, "dvsim: unknown mode %q (want vsync, dvsync, or both)\n", *mode)
		os.Exit(2)
	}

	if *faultList {
		for _, c := range dvsync.FaultClasses() {
			fmt.Println(c)
		}
		return
	}
	faults, err := buildFaults(*faultCls, *faultSev, *faultFrom, *faultTo, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvsim:", err)
		os.Exit(2)
	}
	harden = hardening{faults: faults, fallback: *fallback}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dvsim: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if *ckptDir != "" && *ckptEvery <= 0 {
		fmt.Fprintln(os.Stderr, "dvsim: -checkpoint-every must be positive")
		os.Exit(2)
	}
	if *crashMs < 0 {
		fmt.Fprintln(os.Stderr, "dvsim: -crash-after-ms must not be negative")
		os.Exit(2)
	}
	if *crashMs > 0 && *ckptDir == "" {
		// Without checkpoints no pause ever reaches the crash point, so
		// the flag would do nothing.
		fmt.Fprintln(os.Stderr, "dvsim: -crash-after-ms requires -checkpoint-dir")
		os.Exit(2)
	}
	ckpt = checkpointing{dir: *ckptDir, everyMs: *ckptEvery, resume: *resume,
		traceDigest: *digestOut, crashAfterMs: *crashMs}
	if *flightOut != "" && *digestOut {
		fmt.Fprintln(os.Stderr, "dvsim: -flight and -trace-digest are mutually exclusive (the ring retains a window, not the full trace)")
		os.Exit(2)
	}
	if *flightOut != "" && (*appName != "" || *caseName != "" || *gameName != "") {
		fmt.Fprintln(os.Stderr, "dvsim: -flight applies to workload runs, not scenario runs")
		os.Exit(2)
	}
	flightDir = *flightOut

	if *appName != "" || *caseName != "" || *gameName != "" {
		if err := runScenario(*appName, *caseName, *gameName); err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(2)
		}
		return
	}

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		tr, err := workload.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		runModes(*mode, *hz, *buffers, *limit, *jitterUs, tr)
		return
	}

	period := dvsync.PeriodForHz(*hz).Milliseconds()
	p := dvsync.Profile{
		Name:         "dvsim",
		ShortMeanMs:  orDefault(*shortMean, 0.40*period),
		ShortSigmaMs: orDefault(*shortSig, 0.13*period),
		LongRatio:    *longRatio,
		LongScaleMs:  orDefault(*longScale, 1.5*period),
		LongAlpha:    *longAlpha,
		Burstiness:   *burst,
		UIShare:      *uiShare,
	}
	tr := p.Generate(*frames, *seed)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d frames to %s\n", tr.Len(), *traceOut)
		return
	}

	runModes(*mode, *hz, *buffers, *limit, *jitterUs, tr)
}

// hardening carries the optional fault-injection and supervision settings
// from the flag parser into every run.
type hardening struct {
	faults   *dvsync.FaultConfig
	fallback bool
}

var harden hardening

// checkpointing carries the -checkpoint-dir flag family into every run.
type checkpointing struct {
	dir          string
	everyMs      float64
	resume       bool
	traceDigest  bool
	crashAfterMs float64
}

var ckpt checkpointing

// flightDir is the -flight anomaly-dump directory ("" when detached).
var flightDir string

// execute runs one configuration, honouring the checkpoint flags: a plain
// run when checkpointing is off, otherwise a periodically checkpointed run
// with optional resume and deterministic crash injection. Each checkpoint
// is a replay marker; every output is written after the run returns, so a
// resumed run, which replays its prefix, writes all of them.
func execute(cfg dvsync.Config) (*dvsync.Result, error) {
	if ckpt.dir == "" {
		return dvsync.Run(cfg), nil
	}
	store, err := checkpoint.NewStore(ckpt.dir, strings.ToLower(cfg.Mode.String()))
	if err != nil {
		return nil, err
	}
	digest := sim.ConfigDigest(cfg)
	var sys *sim.System
	if ckpt.resume {
		if sys, err = resumeSystem(cfg, store, digest); err != nil {
			return nil, err
		}
	} else {
		sys = sim.New(cfg)
	}
	crashAt := simtime.Time(dvsync.FromMillis(ckpt.crashAfterMs))
	r, err := sys.RunCheckpointed(simtime.Duration(dvsync.FromMillis(ckpt.everyMs)), func(at simtime.Time) error {
		if err := store.SaveMarker(digest, at); err != nil {
			return err
		}
		if ckpt.crashAfterMs > 0 && at >= crashAt {
			fmt.Fprintf(os.Stderr, "dvsim: injected crash after checkpoint at %v\n", at)
			os.Exit(3)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A finished run invalidates its markers: a later -resume must start
	// fresh rather than resume a finished run.
	if err := store.Clear(); err != nil {
		return nil, err
	}
	return r, nil
}

// resumeSystem replays a system to the newest usable replay marker in the
// store, falling back to a fresh start when the slot is empty. A marker
// for another config, or a payload of another schema, is an error.
func resumeSystem(cfg dvsync.Config, store *checkpoint.Store, digest string) (*sim.System, error) {
	at, err := store.LoadMarker(digest)
	if errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "dvsim: no checkpoint for %s in %s, starting fresh\n", cfg.Mode, ckpt.dir)
		return sim.New(cfg), nil
	}
	if err != nil {
		return nil, err
	}
	sys, err := sim.Resume(cfg, at)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dvsim: resumed %s from %v\n", cfg.Mode, at)
	return sys, nil
}

// writeFlightDumps seals every anomaly dump the ring captured into
// -flight/<id>.dump, pinned to the run's config digest. Ids and bytes
// are deterministic: two identical runs write identical files, and so
// does a resumed run, whose replayed prefix takes the early dumps again.
func writeFlightDumps(ring *dvsync.FlightRing, cfg dvsync.Config) error {
	if err := os.MkdirAll(flightDir, 0o755); err != nil {
		return err
	}
	digest := sim.ConfigDigest(cfg)
	dumps := ring.Dumps()
	for i, id := range ring.DumpIDs(digest) {
		d := &dumps[i]
		f, err := os.Create(filepath.Join(flightDir, id+".dump"))
		if err != nil {
			return err
		}
		if err := flight.EncodeDump(f, digest, d); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("anomaly %s trigger=%s at %v events=%d\n", id, d.Trigger.Kind, d.Trigger.At, len(d.Events))
	}
	fmt.Printf("flight: %d anomaly dump(s) in %s\n", len(dumps), flightDir)
	return nil
}

// buildFaults turns the -fault* flags into a single-class injection plan.
func buildFaults(cls string, sev, fromMs, toMs float64, seed int64) (*dvsync.FaultConfig, error) {
	if cls == "" {
		return nil, nil
	}
	end := dvsync.Time(dvsync.FromMillis(toMs))
	if toMs <= 0 {
		// Far beyond any plausible run length: the fault stays active until
		// the simulation drains.
		end = dvsync.Time(dvsync.FromSeconds(3600))
	}
	return dvsync.FaultScenario(cls, sev, dvsync.Time(dvsync.FromMillis(fromMs)), end, seed)
}

// runModes executes the requested architectures over one trace.
func runModes(mode string, hz, buffers, limit int, jitterUs float64, tr *dvsync.Trace) {
	panel := dvsync.PanelConfig{
		Name: "dvsim", RefreshHz: hz,
		JitterStdDev: dvsync.Duration(jitterUs * 1000),
	}
	run := func(m dvsync.Mode) {
		bufs := buffers
		if bufs == 0 {
			if m == dvsync.VSync {
				bufs = 3
			} else {
				bufs = 4
			}
		}
		cfg := dvsync.Config{
			Mode: m, Panel: panel, Buffers: bufs,
			PreRenderLimit: limit, Trace: tr,
			Faults: harden.faults,
		}
		if harden.fallback && m == dvsync.DVSync {
			cfg.EnableFallback = true
			cfg.Health = dvsync.HealthConfig{
				MaxFDPS:       5,
				MaxCalibErrMs: 10,
				StallTimeout:  dvsync.FromMillis(250),
			}
			cfg.DTV.MaxAbsErrMs = 8
			cfg.FPEOverloadAfter = 4
		}
		if ckpt.traceDigest {
			cfg.Recorder = dvsync.NewRecorder()
		}
		var ring *dvsync.FlightRing
		if flightDir != "" {
			ring = dvsync.NewFlightRecorder(dvsync.FlightConfig{})
			cfg.Recorder = ring
		}
		r, err := execute(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		printResult(r, bufs)
		if ring != nil {
			if err := writeFlightDumps(ring, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "dvsim:", err)
				os.Exit(1)
			}
		}
		if ring == nil && cfg.Recorder != nil {
			var buf bytes.Buffer
			if err := dvsync.WriteEventsJSONL(&buf, cfg.Recorder.Events()); err != nil {
				fmt.Fprintln(os.Stderr, "dvsim:", err)
				os.Exit(1)
			}
			fmt.Printf("trace-digest %s %x\n", strings.ToLower(cfg.Mode.String()), sha256.Sum256(buf.Bytes()))
		}
	}
	switch mode {
	case "vsync":
		run(dvsync.VSync)
	case "dvsync":
		run(dvsync.DVSync)
	case "both":
		run(dvsync.VSync)
		fmt.Println()
		run(dvsync.DVSync)
	default:
		fmt.Fprintf(os.Stderr, "dvsim: unknown mode %q\n", mode)
		os.Exit(2)
	}
}

func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

func printResult(r *dvsync.Result, buffers int) {
	jr := r.Jank()
	ls := r.LatencySummary()
	fmt.Printf("%s (%d buffers)\n", r.Mode, buffers)
	fmt.Printf("  frames presented   %d (skipped %d)\n", len(r.Presented), r.Skipped)
	fmt.Printf("  frame drops        %d  (%.2f FDPS, %.2f%% of display time)\n",
		jr.Janks, jr.FDPS(), jr.DropPercent())
	fmt.Printf("  latency ms         mean %.1f  p50 %.1f  p95 %.1f  max %.1f\n",
		ls.Mean, ls.P50, ls.P95, ls.Max)
	fmt.Printf("  composition        direct %d / stuffed %d\n", r.Direct, r.Stuffed)
	fmt.Printf("  executed work      %.1f ms (+%.1f ms bookkeeping)\n",
		r.ExecutedWork.Milliseconds(), r.OverheadWork.Milliseconds())
	if r.Mode == dvsync.DVSync {
		fmt.Printf("  decoupled frames   %d (vsync path %d)\n", r.DecoupledFrames, r.VSyncPathFrames)
		fmt.Printf("  FPE                %d starts, %d pre-starts, %d sync blocks\n",
			r.FPEStarts, r.FPEPreStarts, r.FPESyncBlocks)
		fmt.Printf("  DTV abs error ms   mean %.3f  max %.3f\n", r.DTVMeanAbsErrMs, r.DTVMaxAbsErrMs)
	}
	if c := r.FaultCounters; c != (dvsync.FaultCounters{}) {
		fmt.Printf("  injected faults    %d stalled, %d jittered, %d missed, %d drifted, %d alloc, %d dropped, %d delayed\n",
			c.StalledFrames, c.JitteredEdges, c.MissedEdges, c.DriftedSignals,
			c.AllocFailures, c.DroppedSamples, c.DelayedSamples)
	}
	if r.DTVReAnchors > 0 || r.FPEBackoffs > 0 || r.FPEStartFailures > 0 {
		fmt.Printf("  hardening          %d DTV re-anchors, %d FPE backoffs, %d start retries\n",
			r.DTVReAnchors, r.FPEBackoffs, r.FPEStartFailures)
	}
	for _, fb := range r.Fallbacks {
		fmt.Printf("  fallback           → %s at %v (%s)\n", fb.To, fb.At, fb.Reason)
	}
	if r.WatchdogTripped != "" {
		fmt.Printf("  WATCHDOG           %s\n", r.WatchdogTripped)
	}
	fmt.Printf("  buffer memory      %.1f MB\n", float64(r.MemoryBytes)/(1<<20))
}

// runScenario executes a catalog scenario the way the experiment harness
// does: calibrated to the paper's measured baseline, then compared across
// architectures.
func runScenario(appName, caseName, gameName string) error {
	switch {
	case appName != "":
		for _, a := range scenarios.Apps() {
			if strings.EqualFold(a.Name, appName) {
				dev := scenarios.Pixel5
				reps := exp.CalibrateReplicas(a.Profile(), scenarios.AppFrames, dev,
					dev.Buffers, a.PaperVSyncFDPS, exp.Seed)
				fmt.Printf("%s on %s (calibrated to %.2f FDPS, %s tail)\n",
					a.Name, dev.Name, a.PaperVSyncFDPS, a.Tail)
				printResult(exp.VSyncRun(reps[0], dev, dev.Buffers), dev.Buffers)
				fmt.Println()
				printResult(exp.DVSyncRun(reps[0], dev, 4), 4)
				return nil
			}
		}
		return fmt.Errorf("unknown app %q (see Figure 11 for names)", appName)
	case caseName != "":
		uc := findCase(caseName)
		if uc == nil {
			return fmt.Errorf("unknown use case %q (see Appendix A abbreviations)", caseName)
		}
		fmt.Printf("#%d %s — %s\n", uc.ID, uc.Abbrev, uc.Description)
		script := autotest.Compile(*uc)
		for _, st := range script.Steps {
			fmt.Printf("  %-7s %-26s %v load=%.2f keys=%.3f\n",
				st.Kind, st.Label, st.Duration, st.Load, st.KeyFrameRatio)
		}
		for _, mode := range []sim.Mode{sim.ModeVSync, sim.ModeDVSync} {
			rep := autotest.RunCase(*uc, scenarios.Mate60Pro, mode, exp.Seed)
			fmt.Printf("%-8s janks=%.1f FDPS=%.2f latency=%.1fms (mean of %d runs)\n",
				mode, rep.Janks, rep.FDPS, rep.LatencyMs, autotest.Runs)
		}
		return nil
	default:
		for _, g := range scenarios.Games() {
			if strings.EqualFold(g.Name, gameName) {
				dev := scenarios.Mate60Pro
				dev.RefreshHz = g.RateHz
				reps := exp.CalibrateReplicas(g.Profile(), scenarios.GameFrames, dev, 3,
					g.PaperVSyncFDPS, exp.Seed)
				fmt.Printf("%s at %d Hz (calibrated to %.2f FDPS)\n",
					g.Name, g.RateHz, g.PaperVSyncFDPS)
				printResult(exp.VSyncRun(reps[0], dev, 3), 3)
				fmt.Println()
				printResult(exp.DVSyncRun(reps[0], dev, 4, func(c *sim.Config) {
					c.Predictor = dvsync.LinearPredictor{}
				}), 4)
				return nil
			}
		}
		return fmt.Errorf("unknown game %q (see Figure 14 for names)", gameName)
	}
}

func findCase(abbrev string) *scenarios.UseCase {
	for _, uc := range scenarios.UseCases() {
		if strings.EqualFold(uc.Abbrev, abbrev) {
			c := uc
			return &c
		}
	}
	return nil
}
