package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"dvsync"
	"dvsync/internal/checkpoint"
	"dvsync/internal/sim"
)

func mustParams(t *testing.T) params {
	t.Helper()
	p, err := newParams("dvsync", 60, 4, 240, 7, "stall", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func prometheusOf(t *testing.T, reg *dvsync.TelemetryRegistry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCrashRecovery drives the full recovery cycle at the runner level: a
// checkpointed run is killed mid-flight, the next identical request
// resumes from the snapshot left behind, and its export is byte-identical
// to an uninterrupted run's. A third request finds no leftovers.
func TestCrashRecovery(t *testing.T) {
	p := mustParams(t)

	straight, _, err := (&runner{}).scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	want := prometheusOf(t, straight)

	rn := &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}
	rn.crashAfter = dvsync.Time(dvsync.FromMillis(1000))
	if _, _, err := rn.scenario(p); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("crash hook: err = %v, want errSimulatedCrash", err)
	}
	entries, err := os.ReadDir(rn.dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint left behind after crash (%v)", err)
	}

	rn.crashAfter = 0
	reg, resumedFrom, err := rn.scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom < dvsync.Time(dvsync.FromMillis(1000)) {
		t.Errorf("resumed from %v, want at least the crash point", resumedFrom)
	}
	if got := prometheusOf(t, reg); got != want {
		t.Error("recovered run's export differs from an uninterrupted run's")
	}

	// Completion cleared the slot: the next run starts fresh.
	reg, resumedFrom, err = rn.scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom != 0 {
		t.Errorf("run after completion resumed from %v, want a fresh start", resumedFrom)
	}
	if got := prometheusOf(t, reg); got != want {
		t.Error("fresh checkpointed run's export differs from a plain run's")
	}
}

// TestCrashRecoveryCorruptSnapshot: an unreadable snapshot never wedges a
// scenario — the runner falls back to the rotated previous snapshot, and
// with both generations corrupt it recomputes from scratch. Either way
// the export matches an uninterrupted run byte for byte.
func TestCrashRecoveryCorruptSnapshot(t *testing.T) {
	p := mustParams(t)
	straight, _, err := (&runner{}).scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	want := prometheusOf(t, straight)

	rn := &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}
	rn.crashAfter = dvsync.Time(dvsync.FromMillis(1000))
	if _, _, err := rn.scenario(p); !errors.Is(err, errSimulatedCrash) {
		t.Fatal("crash hook did not fire")
	}
	rn.crashAfter = 0

	entries, err := os.ReadDir(rn.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(rn.dir+"/"+e.Name(), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg, resumedFrom, err := rn.scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom != 0 {
		t.Errorf("resumed from %v despite corrupt snapshots", resumedFrom)
	}
	if got := prometheusOf(t, reg); got != want {
		t.Error("recomputed run's export differs from an uninterrupted run's")
	}
}

// TestCrashRecoveryOverHTTP: the HTTP surface serves the recovered run —
// the scrape after a crash is byte-identical to a plain server's.
func TestCrashRecoveryOverHTTP(t *testing.T) {
	rn := &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}
	rn.crashAfter = dvsync.Time(dvsync.FromMillis(800))
	srv := testServerWith(t, rn)

	const path = "/metrics?fault=stall&severity=0.6&seed=7"
	if code, body := get(t, srv.URL+path); code != 500 || !strings.Contains(body, "simulated crash") {
		t.Fatalf("crashed request: %d %.120q, want a 500 JSON error", code, body)
	}
	rn.crashAfter = 0
	_, recovered := get(t, srv.URL+path)
	_, plain := get(t, testServer(t).URL+path)
	if recovered != plain {
		t.Error("recovered scrape differs from a plain server's")
	}
}

// TestRecoveredStreamComplete: a /stream served by a run that resumes
// after a crash carries every row, not only those after the resume
// point: the resumed run replays its prefix with the registry attached,
// so the recovered stream is byte-identical to an uninterrupted one.
func TestRecoveredStreamComplete(t *testing.T) {
	const path = "/stream?frames=240&fault=stall&severity=0.6&seed=7"
	_, want := get(t, testServerWith(t, &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}).URL+path)
	if !strings.Contains(want, "event: snapshot\n") {
		t.Fatalf("uninterrupted stream has no final snapshot:\n%.300s", want)
	}

	rn := &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}
	rn.crashAfter = dvsync.Time(dvsync.FromMillis(1000))
	srv := testServerWith(t, rn)
	if _, body := get(t, srv.URL+path); !strings.Contains(body, "event: error\n") {
		t.Fatalf("crashed stream has no error event:\n%.300s", body)
	}
	rn.crashAfter = 0
	_, got := get(t, srv.URL+path)
	if got != want {
		t.Errorf("recovered stream is %d bytes, an uninterrupted one %d; they differ", len(got), len(want))
	}
}

// schema1Payload is shaped like the full simulator state a checkpoint
// carried before resume by replay (schema 1): a marker loader must reject
// it by its schema, not try to read it.
const schema1Payload = `{"at":1000000000,"engine":{"now":1000000000,"seq":412,"next_id":412,"fired":398},` +
	`"panel":{"running":true,"edges":60},"signal":{},"queue":{"slots":[]},"producer":{"next":58},` +
	`"driver":{"next_idx":58,"started":true,"ticks":59},"accum":{"first_latch":33333333,"last_latch":983333333}}`

// TestCrashRecoveryOldSchema: a slot holding a schema-1 state snapshot,
// sealed in a valid envelope under the run's own config digest, never
// wedges the scenario — the runner recomputes it, and the export matches
// an uninterrupted run byte for byte.
func TestCrashRecoveryOldSchema(t *testing.T) {
	p := mustParams(t)
	straight, _, err := (&runner{}).scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	want := prometheusOf(t, straight)

	rn := &runner{dir: t.TempDir(), every: dvsync.FromMillis(250)}
	digest := sim.ConfigDigest(p.config(dvsync.NewTelemetryRegistry()))
	store, err := checkpoint.NewStore(rn.dir, "run-"+digest[:16])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(digest, int64(dvsync.FromMillis(1000)), nil, []byte(schema1Payload)); err != nil {
		t.Fatal(err)
	}
	var se *checkpoint.SchemaError
	if _, err := store.LoadMarker(digest); !errors.As(err, &se) {
		t.Fatalf("LoadMarker of a schema-1 payload: %v, want a SchemaError", err)
	}
	reg, resumedFrom, err := rn.scenario(p)
	if err != nil {
		t.Fatal(err)
	}
	if resumedFrom != 0 {
		t.Errorf("resumed from %v despite a schema-1 checkpoint", resumedFrom)
	}
	if got := prometheusOf(t, reg); got != want {
		t.Error("recomputed run's export differs from an uninterrupted run's")
	}
}
