package main

import (
	"sync"
	"testing"
	"time"
)

func TestTracerConcurrentSpans(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.beginOn(lane, "x", "sim", -1, int64(i)))
			}
		}(g)
	}
	wg.Wait()
	if n := len(tr.spans()); n != 400 {
		t.Fatalf("%d spans, want 400", n)
	}
}

// The census replay is built from public packages; it must classify,
// simulate and aggregate exactly as the engine does, cold and warm.
func TestCensusReplayAgreesWithCensus(t *testing.T) {
	spec := censusSpec(3, 2)
	cohorts, err := expandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold, warm, _, err := realCensus(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{values: map[string]float64{}, counters: map[string]string{}}
	rp := &censusReplay{tr: newTracer(), cache: map[string]*cellOut{}}
	agree(b, "cold", rp.census(cohorts, -1), cold)
	agree(b, "warm", rp.census(cohorts, -1), warm)
	if b.failed != 0 || rp.simulated != cold.Simulated || rp.hits != cold.CacheHits+warm.CacheHits {
		t.Fatalf("replay disagrees: %d failed checks, %d simulated, %d hits", b.failed, rp.simulated, rp.hits)
	}
}

func TestSelfTimesMergeConcurrentChildren(t *testing.T) {
	tr := &tracer{list: []span{
		{Name: "root", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "sim", Start: 10, End: 60, Parent: 0, Lane: 1},
		{Name: "b", Layer: "sim", Start: 40, End: 80, Parent: 0, Lane: 2},
		{Name: "c", Layer: "flight", Start: 20, End: 30, Parent: 1, Lane: 1},
	}}
	self := tr.selfTimes()
	// root: 100 minus the union [10,80] of its children.
	if got := self["bench"]; got != 30 {
		t.Errorf("bench self = %d, want 30", got)
	}
	// a: 50 - 10 covered by c; b: 40.
	if got := self["sim"]; got != 80 {
		t.Errorf("sim self = %d, want 80", got)
	}
	if got := self["flight"]; got != 10 {
		t.Errorf("flight self = %d, want 10", got)
	}
	if got := residualOf(tr, 0); got != 0.3 {
		t.Errorf("residual = %v, want 0.3", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "bench", -1, 0)
	if d := tr.end(id); id != -1 || d != time.Duration(0) || tr.spans() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}

func TestZipfSpreadFollowsWeights(t *testing.T) {
	got := zipfSpread(720, hotScenarios)
	counts := make([]int, hotScenarios)
	for _, i := range got {
		counts[i]++
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("counts not decreasing with rank: %v", counts)
		}
	}
	// Weight 1/(i+1): the hottest key gets about twice the second's share.
	if r := float64(counts[0]) / float64(counts[1]); r < 1.8 || r > 2.2 {
		t.Fatalf("hottest/second = %.2f, want about 2 (%v)", r, counts)
	}
}

func TestScriptMixIsExactAndSeeded(t *testing.T) {
	a, b := newScript(7, 0, []string{"x"}), newScript(7, 0, []string{"x"})
	for p := range a.passes {
		n := kindCounts(a.passes[p])
		want := map[string]int{"metrics": passMetrics, "stream": passStream, "fleet": passFleet, "anomalies": passAnomalies}
		for k, v := range want {
			if n[k] != v {
				t.Errorf("pass %d: %d %s requests, want %d", p, n[k], k, v)
			}
		}
		for i := range a.passes[p] {
			if a.passes[p][i].path != b.passes[p][i].path {
				t.Fatalf("pass %d request %d differs between equal seeds", p, i)
			}
		}
	}
}

func TestStripAccountingKeepsEverythingElse(t *testing.T) {
	v := map[string]any{"simulated": 3.0, "cache_hits": 1.0, "cells": 4.0,
		"cohorts": []any{map[string]any{"simulated": 1.0, "name": "a", "metrics": []any{
			map[string]any{"name": "fleet_cache_hits_total"}, map[string]any{"name": "fleet_janks_total"}}}}}
	stripAccounting(v)
	c := v["cohorts"].([]any)[0].(map[string]any)
	if _, ok := v["simulated"]; ok || v["cells"] != 4.0 || c["name"] != "a" {
		t.Fatalf("unexpected result %v", v)
	}
	if ms := c["metrics"].([]any); len(ms) != 1 || ms[0].(map[string]any)["name"] != "fleet_janks_total" {
		t.Fatalf("metrics = %v", ms)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{5000: 99, 400: 95, 120: 90, 50: 75, 20: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
