package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dvsync/internal/fault"
	"dvsync/internal/flight"
	"dvsync/internal/health"
	"dvsync/internal/ipl"
	"dvsync/internal/obs"
	"dvsync/internal/par"
	"dvsync/internal/simtime"
	"dvsync/internal/trace"
)

// attrScenario is one golden scenario for the attribution contract.
type attrScenario struct {
	name string
	mk   func() Config
}

// faultClassConfig builds a D-VSync run with the full hardening stack and
// one injected fault class — the per-class arm of the attribution goldens.
func faultClassConfig(cls string) Config {
	fc, err := fault.Scenario(cls, 0.8, msT(500), msT(3600), 99)
	if err != nil {
		panic(err)
	}
	p := goldenProfile()
	cfg := Config{
		Mode: ModeDVSync, Panel: panel60(), Buffers: 4,
		Trace:            p.Generate(400, 1234),
		Predictor:        ipl.Kalman{},
		Recorder:         trace.NewRecorder(),
		Faults:           fc,
		FPEOverloadAfter: 4,
		EnableFallback:   true,
		Health: health.Config{MaxFDPS: 6, MaxCalibErrMs: 12,
			StallTimeout: 250 * simtime.Millisecond},
	}
	cfg.DTV.MaxAbsErrMs = 8
	return cfg
}

// attrScenarios is the golden set: every golden scenario plus one
// scenario per sweepable fault class.
func attrScenarios() []attrScenario {
	var scs []attrScenario
	for _, sc := range goldenScenarios() {
		scs = append(scs, attrScenario{name: sc.name, mk: sc.mk})
	}
	for _, cls := range fault.Classes() {
		cls := cls
		scs = append(scs, attrScenario{
			name: "fault-" + cls,
			mk:   func() Config { return faultClassConfig(cls) },
		})
	}
	return scs
}

// causeTable runs one scenario and renders its attribution as the
// dvtrace -why cause table, returning the table bytes plus the recorded
// events for structural checks.
func causeTable(mk func() Config) (string, []trace.Event, error) {
	cfg := mk()
	if _, err := TryRun(cfg); err != nil {
		return "", nil, err
	}
	events := append([]trace.Event(nil), cfg.Recorder.Events()...)
	var buf bytes.Buffer
	obs.WriteCauseTable(&buf, obs.Attribute(events))
	return buf.String(), events, nil
}

// TestAttributionGolden is the causal-attribution contract over the
// golden scenarios and every fault class: each jank, missed edge and
// fallback gets exactly one cause chain, no chain is unattributed, and
// the rendered cause table is byte-identical across worker widths.
func TestAttributionGolden(t *testing.T) {
	scs := attrScenarios()
	type out struct {
		table  string
		events []trace.Event
		err    error
	}
	run := func(workers int) []out {
		par.SetWorkers(workers)
		defer par.SetWorkers(0)
		return par.Map(len(scs), func(i int) out {
			table, events, err := causeTable(scs[i].mk)
			return out{table: table, events: events, err: err}
		})
	}
	base := run(1)
	for i, o := range base {
		if o.err != nil {
			t.Fatalf("%s: %v", scs[i].name, o.err)
		}
		symptoms := 0
		for _, ev := range o.events {
			switch ev.Kind {
			case trace.Jank, trace.EdgeMissed, trace.Fallback:
				symptoms++
			}
		}
		chains := obs.Attribute(o.events)
		if len(chains) != symptoms {
			t.Errorf("%s: %d cause chains for %d symptom instants — every jank, missed edge and fallback gets exactly one",
				scs[i].name, len(chains), symptoms)
		}
		for _, c := range chains {
			if len(c.Causes) == 0 {
				t.Fatalf("%s: chain at %v has no causes", scs[i].name, c.At)
			}
			for _, cause := range c.Causes {
				if cause.Kind == obs.CauseUnattributed {
					t.Errorf("%s: %s at %v is unattributed", scs[i].name, c.Instant, c.At)
				}
			}
		}
	}
	wide := run(4)
	for i := range scs {
		if wide[i].err != nil {
			t.Fatalf("workers=4 %s: %v", scs[i].name, wide[i].err)
		}
		if wide[i].table != base[i].table {
			t.Errorf("%s: cause table differs between workers 1 and 4", scs[i].name)
		}
	}
}

// TestAttributionNamesInjectedClass: with a single fault class injected,
// at least one chain roots at a fault episode naming that class — the
// "-why names the fault" contract the CI smoke also checks end to end.
func TestAttributionNamesInjectedClass(t *testing.T) {
	for _, cls := range fault.Classes() {
		cfg := faultClassConfig(cls)
		if _, err := TryRun(cfg); err != nil {
			t.Fatalf("%s: %v", cls, err)
		}
		chains := obs.Attribute(cfg.Recorder.Events())
		if len(chains) == 0 {
			t.Fatalf("%s: no symptoms to attribute (scenario too tame)", cls)
		}
		// Markers carry the injector's class vocabulary ("vsync-jitter"),
		// not Scenario's sweep shorthand ("jitter").
		want := fmt.Sprintf("class=%s", cfg.Faults.Episodes()[0].Class)
		found := false
		for _, c := range chains {
			if r := c.Root(); r.Kind == obs.CauseFaultEpisode && bytes.Contains([]byte(r.Detail), []byte(want)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no cause chain roots at a %s episode", cls, cls)
		}
	}
}

// flightMk wraps a golden scenario so its run records into a flight ring
// instead of a plain recorder.
func flightMk(mk func() Config) func() Config {
	return func() Config {
		cfg := mk()
		cfg.Recorder = flight.New(flight.Config{})
		return cfg
	}
}

// flightDigest folds a finished run's anomaly dumps — ids and sealed
// envelope bytes, in trigger order — into one hex digest.
func flightDigest(cfg Config) (string, error) {
	ids, sealed, err := sealedDumps(cfg)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	for i := range ids {
		fmt.Fprintf(&buf, "%s\n", ids[i])
		buf.Write(sealed[i])
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// sealedDumps encodes every dump the config's ring holds, named by
// Ring.DumpIDs.
func sealedDumps(cfg Config) ([]string, [][]byte, error) {
	ring, ok := cfg.Recorder.(*flight.Ring)
	if !ok {
		return nil, nil, fmt.Errorf("config recorder is %T, not a flight ring", cfg.Recorder)
	}
	digest := ConfigDigest(cfg)
	dumps := ring.Dumps()
	ids := ring.DumpIDs(digest)
	sealed := make([][]byte, len(dumps))
	for i := range dumps {
		var buf bytes.Buffer
		if err := flight.EncodeDump(&buf, digest, &dumps[i]); err != nil {
			return nil, nil, err
		}
		sealed[i] = buf.Bytes()
	}
	return ids, sealed, nil
}

// TestFlightDumpsDeterministic is the anomaly-dump determinism contract:
// for every golden scenario, the sealed dump set is byte-identical from a
// fresh run, from a reused Runner (three rounds), and at worker widths
// 1, 4 and 8.
func TestFlightDumpsDeterministic(t *testing.T) {
	scs := goldenScenarios()
	type out struct {
		fresh  string
		reused []string
		err    error
	}
	defer par.SetWorkers(0)
	var baseline []string
	for _, w := range []int{1, 4, 8} {
		outs := func() []out {
			par.SetWorkers(w)
			defer par.SetWorkers(0)
			return par.Map(len(scs), func(i int) out {
				mk := flightMk(scs[i].mk)
				cfg := mk()
				if _, err := TryRun(cfg); err != nil {
					return out{err: err}
				}
				fresh, err := flightDigest(cfg)
				if err != nil {
					return out{err: err}
				}
				rcfg := mk()
				rn := NewRunner(rcfg)
				var reused []string
				for round := 0; round < 3; round++ {
					rn.Run()
					d, err := flightDigest(rcfg)
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
					t.Errorf("workers=%d %s round %d: reused-Runner dumps differ from a fresh run's",
						w, scs[i].name, round)
				}
			}
		}
		if w == 1 {
			for _, o := range outs {
				baseline = append(baseline, o.fresh)
			}
			continue
		}
		for i, o := range outs {
			if o.fresh != baseline[i] {
				t.Errorf("workers=%d %s: dumps differ from workers=1", w, scs[i].name)
			}
		}
	}
}
