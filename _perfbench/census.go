package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"dvsync/internal/fleet"
)

// censusReplicas scales the canonical demo census (fleet.DemoSpec) to
// 3000 cells, 2400 of them unique, which stays under the engine's
// 4096-entry result cache, so every warm repeat is all cache hits.
const censusReplicas = 300

// censusWarmRepeats is how many times a worker repeats the census on its
// now-warm engine.
const censusWarmRepeats = 6

// censusSpec is the workload's census for a seed: the demo census with
// its base seed moved by the run's seed. Replica r of a cell uses base+r,
// so seeds 1000 apart never share a trace.
func censusSpec(seed int64, replicas int) fleet.Spec {
	s := fleet.DemoSpec(false)
	s.Replicas = replicas
	s.Seed = 7 + seed*1000
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// censusResult is what one census worker process reports.
type censusResult struct {
	Cells      int       `json:"cells"`
	Simulated  int       `json:"simulated"`
	CacheHits  int       `json:"cache_hits"`
	Anomalies  int       `json:"anomalies"`
	ColdS      float64   `json:"cold_s"`
	WarmS      []float64 `json:"warm_s"`
	ColdDigest string    `json:"cold_digest"` // Result.WriteJSON bytes
	WarmDigest string    `json:"warm_digest"`
	Normalized []string  `json:"normalized"` // per census, hit accounting removed
}

// timedCensus runs one census and returns its wall time.
func timedCensus(eng *fleet.Engine, spec fleet.Spec) (*fleet.Result, time.Duration, error) {
	t := time.Now()
	res, err := eng.Census(spec, nil)
	return res, time.Since(t), err
}

// censusChild is the worker process: one fresh engine, one cold census,
// then warm repeats of the same census.
func censusChild(o opts, probe bool) (any, error) {
	spec := censusSpec(o.seed, censusReplicas)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := fleet.NewEngine()
	fmt.Println("ready")
	if probe {
		return nil, nil
	}
	var r censusResult
	res, d, err := timedCensus(eng, spec)
	if err != nil {
		return nil, err
	}
	r.Cells, r.Simulated, r.CacheHits, r.Anomalies = res.Cells, res.Simulated, res.CacheHits, res.Anomalies
	r.ColdS = d.Seconds()
	if r.ColdDigest, err = resultDigest(res); err != nil {
		return nil, err
	}
	norm, err := normalizedDigest(res)
	if err != nil {
		return nil, err
	}
	r.Normalized = append(r.Normalized, norm)
	for i := 0; i < censusWarmRepeats; i++ {
		res, d, err := timedCensus(eng, spec)
		if err != nil {
			return nil, err
		}
		r.WarmS = append(r.WarmS, d.Seconds())
		if r.WarmDigest, err = resultDigest(res); err != nil {
			return nil, err
		}
		if norm, err = normalizedDigest(res); err != nil {
			return nil, err
		}
		r.Normalized = append(r.Normalized, norm)
	}
	return r, nil
}

// resultDigest hashes the census result exactly as WriteJSON emits it.
func resultDigest(res *fleet.Result) (string, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", err
	}
	return sha(buf.Bytes()), nil
}

// normalizedDigest hashes a census result (or its /fleet JSON form) with
// the cache accounting removed: simulated and cache-hit counts depend on
// what the engine had seen before, everything else depends only on the
// spec.
func normalizedDigest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return "", err
	}
	stripAccounting(tree)
	out, err := json.Marshal(tree)
	if err != nil {
		return "", err
	}
	return sha(out), nil
}

var accountingMetrics = map[string]bool{
	"fleet_cells_simulated_total": true,
	"fleet_cache_hits_total":      true,
}

func stripAccounting(v any) {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "simulated")
		delete(t, "cache_hits")
		if ms, ok := t["metrics"].([]any); ok {
			kept := ms[:0]
			for _, m := range ms {
				if mm, ok := m.(map[string]any); ok && accountingMetrics[fmt.Sprint(mm["name"])] {
					continue
				}
				kept = append(kept, m)
			}
			t["metrics"] = kept
		}
		for _, c := range t {
			stripAccounting(c)
		}
	case []any:
		for _, c := range t {
			stripAccounting(c)
		}
	}
}

// censusRun starts one census worker and checks its output: the cold and
// every warm census must agree once cache accounting is removed, the
// accounting must be exact, and the digests must repeat across runs.
func censusRun(b *bench) (*worker, censusResult, float64, error) {
	var r censusResult
	w, err := startWorker(b, "census")
	if err != nil {
		return nil, r, 0, err
	}
	rss, err := w.finish(&r)
	if err != nil {
		return nil, r, 0, err
	}
	b.check(r.Simulated+r.CacheHits == r.Cells && r.Cells == 10*censusReplicas,
		"census accounting: %d simulated + %d hits != %d cells", r.Simulated, r.CacheHits, r.Cells)
	for i, n := range r.Normalized {
		b.check(n == r.Normalized[0], "census %d result differs from the cold census", i)
	}
	if pin, ok := censusPins[b.seed]; ok {
		b.check(r.ColdDigest == pin, "cold census digest %s, pinned %s for seed %d", r.ColdDigest, pin, b.seed)
	}
	b.count("census.cold_digest", r.ColdDigest)
	b.count("census.warm_digest", r.WarmDigest)
	b.count("fleet.simulated", r.Simulated)
	b.count("fleet.cache_hits", r.CacheHits)
	b.count("fleet.anomalies", r.Anomalies)
	return w, r, rss, nil
}

// censusPins are WriteJSON digests of the cold census for seeds 0-20.
// Other seeds are checked for agreement across processes and runs only.
var censusPins = map[int64]string{
	0:  "101f7c8f6c85e185ccd3c392a167b3041c409718c981f259cb93383ea2dfdf31",
	1:  "658263c6b4e3072009f354e7dfdc633229757a387f5449b2a8faef3cd6a97da0",
	2:  "866fe7661f30424968f6b63172d0190485121c640921d1830d9b6885cd9c26ef",
	3:  "5f130e6acd35167785dfb9fb49fa8fbaae3160f919790d1945812c74c67adbdf",
	4:  "6ceb355d30cef46231e96c0f7187b2391d3f9e020076ee6af408e090a1eec45f",
	5:  "44a5c0ebbe80367c2a80d59c40b1be3d8c0ec07ce617f0145dfa2d3e97d542cd",
	6:  "0090ab8797ea6618714506ea58d57000be82baf9d69bdb054dffa74bdfd3a74b",
	7:  "26b4a267656e804865f326da1c057421d78ecfaff240009553a0f96d916dd375",
	8:  "0f0b8dc087c45215d0a32f24246cc0196246b2eeb5bfafd4e21fc89ed313c095",
	9:  "6e0e4344b7226282a3aaa6ce4443dbf433f4550c908e96d07bc1a783d9b4438a",
	10: "9b1dde9e8227d83d03d124dc2095ac9d0404d9999b254f4f6e7137cc15c4b239",
	11: "6fd8eda8d009955303f8e8f18c5bb4f95a462f0845510bc191ce2a41d0a639a0",
	12: "201cf8931c605ae3a9d87ad7ed44531c586a5976f5efc0cd546cac2ad4d58c67",
	13: "1f8fd64f3003e4a52a731aa6dc261a15ec6a5be199fa7350aaf3a58e31f62ef9",
	14: "34d5fd0b228238c0bd552ada552133c6eb44580946bfc5ce92f49214dcd88c23",
	15: "12c7a13fc77c8c23e58da53c1c0b644c3482f25053f0ab54f85972287574936c",
	16: "f90362f511736c7aee1c6c6184ee391587f10db881170612c0e9f86d90f5222b",
	17: "47eb82183c5464740c33b0ebc367900095927823bcb8a8cda2a5bfe467e75e35",
	18: "bcfc44f7a7585fab3052b9999a10d822822c875be7f9c7f0230bfb4663c7883b",
	19: "72a2654109e0a9196aebb49c92c1b5a5905286a2172f2da2566542dd992b4019",
	20: "aae981be1031788b6e725bb68e59dec546bc7cb6492ba57dd0ce93635b02e423",
}

// runCensus measures the fleet-census workload: fresh worker processes,
// each running a cold census on a new engine and warm repeats, until the
// run's time is used.
func runCensus(b *bench) error {
	var setups, rss, cold, warm []float64
	cells := 0
	err := repeat(b, func() error {
		w, r, mb, err := censusRun(b)
		if err != nil {
			return err
		}
		cells = r.Cells
		setups = append(setups, w.setup.Seconds())
		rss = append(rss, mb)
		cold = append(cold, r.ColdS)
		warm = append(warm, r.WarmS...)
		return nil
	})
	if err != nil {
		return err
	}
	probes, err := setupProbes(b, "census")
	if err != nil {
		return err
	}
	setups = append(setups, probes...)
	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", median(rss))
	b.set("cold_ops_per_s", float64(cells)/median(cold))
	b.set("warm_ops_per_s", float64(cells)/median(warm))
	fmt.Printf("# fleet-census: %d cells, %d cold censuses (median %.3f s), %d warm (median %.3f s), %d setup samples\n",
		cells, len(cold), median(cold), len(warm), median(warm), len(setups))
	return nil
}
