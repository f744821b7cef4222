package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsync"
	"dvsync/internal/workload"
)

// faultedArtifacts runs one stall-faulted D-VSync simulation with the
// flight recorder attached and writes two kinds of analysable artifact
// into dir: every sealed anomaly dump, and the full trace as JSONL.
func faultedArtifacts(t *testing.T, dir string) (dumpPaths []string, jsonlPath string) {
	t.Helper()
	fc, err := dvsync.FaultScenario("stall", 0.8,
		dvsync.Time(dvsync.FromMillis(500)), dvsync.Time(dvsync.FromMillis(3600)), 99)
	if err != nil {
		t.Fatal(err)
	}
	ring := dvsync.NewFlightRecorder(dvsync.FlightConfig{})
	p := workload.DefaultProfile("dvtrace", dvsync.PeriodForHz(60).Milliseconds())
	cfg := dvsync.Config{
		Mode: dvsync.DVSync, Panel: dvsync.PanelConfig{Name: "dvtrace", RefreshHz: 60},
		Buffers: 4, Trace: p.Generate(400, 1234), Recorder: ring,
		Faults: fc, FPEOverloadAfter: 4, EnableFallback: true,
		Health: dvsync.HealthConfig{MaxFDPS: 6, MaxCalibErrMs: 12,
			StallTimeout: dvsync.FromMillis(250)},
	}
	cfg.DTV.MaxAbsErrMs = 8
	dvsync.Run(cfg)
	dumps := ring.Dumps()
	if len(dumps) == 0 {
		t.Fatal("stall run triggered no anomaly dumps (scenario too tame)")
	}
	digest := dvsync.ConfigDigest(cfg)
	for i, id := range ring.DumpIDs(digest) {
		path := filepath.Join(dir, id+".dump")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := dvsync.EncodeAnomalyDump(f, digest, &dumps[i]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		dumpPaths = append(dumpPaths, path)
	}
	// The ring only retains a bounded tail window; the JSONL artifact wants
	// the whole run, so record it again with an unbounded recorder (the
	// simulation is deterministic, so it is the same run).
	rec := dvsync.NewRecorder()
	cfg.Recorder = rec
	dvsync.Run(cfg)
	jsonlPath = filepath.Join(dir, "run.jsonl")
	g, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dvsync.WriteEventsJSONL(g, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return dumpPaths, jsonlPath
}

// TestWhyOnAnomalyDump: -why on a sealed dump prints the trigger header
// (kind, config digest prefix, event count) and a cause table; the dumps
// triggered inside the fault window root at the injected class; output is
// byte-identical across invocations.
func TestWhyOnAnomalyDump(t *testing.T) {
	dumpPaths, _ := faultedArtifacts(t, t.TempDir())
	named := false
	for _, dumpPath := range dumpPaths {
		code, stdout, stderr := runCLI("-why", dumpPath)
		if code != 0 {
			t.Fatalf("%s: exit %d (stderr %q)", dumpPath, code, stderr)
		}
		if !strings.HasPrefix(stdout, "anomaly dump: trigger=") {
			t.Errorf("%s: missing dump header: %.80q", dumpPath, stdout)
		}
		for _, want := range []string{"config=", "events=", "attributed instants"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("%s: -why output lacks %q:\n%s", dumpPath, want, stdout)
			}
		}
		if strings.Contains(stdout, "fault-episode(class=stall") {
			named = true
		}
		if _, again, _ := runCLI("-why", dumpPath); again != stdout {
			t.Errorf("%s: -why output differs between identical invocations", dumpPath)
		}
	}
	if !named {
		t.Errorf("none of %d dumps roots a cause chain at the injected stall episode", len(dumpPaths))
	}
}

// TestWhyOnTrace: -why falls back to JSONL when the file is not an
// envelope, attributing the whole recorded run.
func TestWhyOnTrace(t *testing.T) {
	_, jsonlPath := faultedArtifacts(t, t.TempDir())
	code, stdout, stderr := runCLI("-why", jsonlPath)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr)
	}
	if strings.Contains(stdout, "anomaly dump:") {
		t.Errorf("JSONL input mis-detected as a dump: %.80q", stdout)
	}
	for _, want := range []string{"attributed instants", "jank", "fault-episode(class=stall"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-why output lacks %q:\n%s", want, stdout)
		}
	}
}

// TestWhyRejections: -why keeps the flag-validation contract — bad
// combinations exit 2 before any file is touched, unreadable input exits 1.
func TestWhyRejections(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "never-created.dump")
	for _, args := range [][]string{
		{"-why"},
		{"-why", "a.dump", "b.dump"},
		{"-why", "-record", missing},
		{"-why", "-check", missing},
		{"-why", "-timeline", missing},
		{"-why", "-perfetto", "out.json", missing},
		{"-why", "-seed", "7", missing},
	} {
		if code, _, _ := runCLI(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code, _, stderr := runCLI("-why", missing); code != 1 || stderr == "" {
		t.Errorf("missing file: exit %d stderr %q, want 1 + diagnostic", code, stderr)
	}
}

// TestCheckSuccessReport: the -check success output names the trace schema
// version, event count, span coverage and track list, and is stable across
// invocations.
func TestCheckSuccessReport(t *testing.T) {
	dir := t.TempDir()
	export := filepath.Join(dir, "run.perfetto.json")
	if code, _, stderr := runCLI("-record", "-mode", "dvsync", "-frames", "30",
		"-seed", "7", "-perfetto", export); code != 0 {
		t.Fatalf("record: exit %d (stderr %q)", code, stderr)
	}
	code, stdout, stderr := runCLI("-check", export)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 report lines, got %d:\n%s", len(lines), stdout)
	}
	if !strings.Contains(lines[0], "valid Perfetto export (trace schema v") {
		t.Errorf("line 1 lacks the schema version: %q", lines[0])
	}
	if !strings.Contains(lines[1], "frame spans over") || !strings.Contains(lines[1], "counter samples") {
		t.Errorf("line 2 lacks span/counter coverage: %q", lines[1])
	}
	if !strings.HasPrefix(strings.TrimSpace(lines[2]), "tracks") {
		t.Errorf("line 3 lacks the track list: %q", lines[2])
	}
	if _, again, _ := runCLI("-check", export); again != stdout {
		t.Error("-check output differs between identical invocations")
	}
}
