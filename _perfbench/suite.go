package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"time"

	"dvsync/internal/exp"
	"dvsync/internal/par"
)

// suiteDigest pins the rendered paper suite: SHA-256 over every
// experiment's id and output, in registry order, with fig16's host-clock
// row removed. The suite's inputs are fixed by the paper, so the digest is
// the same for every seed.
const suiteDigest = "70f8e4cd35b992c4ac2ecf5345dc3ab85f0874baa8077e2be5bab20ff14e53c1"

// hostClockRow is the one line of the suite that depends on host time.
const hostClockRow = "ZDP overhead (ns/frame, measured)"

// suiteWarmRenders is how many times a worker re-renders the suite after
// the cold render, with its calibration cache full.
const suiteWarmRenders = 2

// suiteResult is what one suite worker process reports.
type suiteResult struct {
	ColdS   float64   `json:"cold_s"`
	WarmS   []float64 `json:"warm_s"`
	Digests []string  `json:"digests"` // cold render first
	Spans   []span    `json:"spans,omitempty"`
}

// suiteOrder is the seeded render order. The seed permutes the order the
// experiments are rendered in — which decides which experiment pays for
// each shared calibration search — but not what they render.
func suiteOrder(seed int64) []exp.Experiment {
	reg := exp.Registry()
	r := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	r.Shuffle(len(reg), func(i, j int) { reg[i], reg[j] = reg[j], reg[i] })
	return reg
}

// renderSuite renders every experiment once in the given order and
// returns the suite digest.
func renderSuite(order []exp.Experiment, tr *tracer, parent int) string {
	outs := map[string][]byte{}
	for _, e := range order {
		id := tr.begin("exp."+e.ID, "exp", parent, 0)
		var buf bytes.Buffer
		e.Run(&buf)
		tr.end(id)
		outs[e.ID] = buf.Bytes()
	}
	var all bytes.Buffer
	for _, e := range exp.Registry() {
		fmt.Fprintf(&all, "%s\n", e.ID)
		for _, line := range strings.SplitAfter(string(outs[e.ID]), "\n") {
			if !strings.Contains(line, hostClockRow) {
				all.WriteString(line)
			}
		}
	}
	return sha(all.Bytes())
}

// suiteChild is the worker process: a fresh process per render, because
// the calibration cache is process-global and every dvbench invocation
// starts with it empty.
func suiteChild(o opts, probe bool) (any, error) {
	par.SetWorkers(runtime.NumCPU())
	order := suiteOrder(o.seed)
	fmt.Println("ready")
	if probe {
		return nil, nil
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var res suiteResult
	root := tr.begin("suite.cold", "bench", -1, 0)
	t := time.Now()
	d := renderSuite(order, tr, root)
	wall := time.Since(t)
	tr.end(root)
	res.ColdS = wall.Seconds()
	res.Digests = append(res.Digests, d)
	if !o.trace {
		for i := 0; i < suiteWarmRenders; i++ {
			t := time.Now()
			d := renderSuite(order, nil, -1)
			res.WarmS = append(res.WarmS, time.Since(t).Seconds())
			res.Digests = append(res.Digests, d)
		}
	}
	res.Spans = tr.spans()
	return res, nil
}

// suiteRun starts one suite worker and checks its output. A traced
// worker records a span per experiment and renders only cold.
func suiteRun(b *bench, traced bool) (*worker, suiteResult, float64, error) {
	var r suiteResult
	var extra []string
	if traced {
		extra = []string{"-trace", "1"}
	}
	w, err := startWorker(b, "suite", extra...)
	if err != nil {
		return nil, r, 0, err
	}
	rss, err := w.finish(&r)
	if err != nil {
		return nil, r, 0, err
	}
	for i, d := range r.Digests {
		b.check(d == suiteDigest, "paper-suite render %d digest %s, pinned %s", i, d, suiteDigest)
	}
	b.count("suite.digest", r.Digests[0])
	return w, r, rss, nil
}

// runSuite measures the paper-suite workload: fresh worker processes,
// each rendering all registered experiments cold and then warm, until the
// run's time is used.
func runSuite(b *bench) error {
	var setups, rss, cold, warm []float64
	err := repeat(b, func() error {
		w, r, mb, err := suiteRun(b, false)
		if err != nil {
			return err
		}
		setups = append(setups, w.setup.Seconds())
		rss = append(rss, mb)
		cold = append(cold, r.ColdS)
		warm = append(warm, r.WarmS...)
		return nil
	})
	if err != nil {
		return err
	}
	probes, err := setupProbes(b, "suite")
	if err != nil {
		return err
	}
	setups = append(setups, probes...)
	n := float64(len(exp.Registry()))
	b.set("setup_s", median(setups))
	b.set("peak_rss_mb", median(rss))
	b.set("cold_ops_per_s", n/median(cold))
	b.set("warm_ops_per_s", n/median(warm))
	fmt.Printf("# paper-suite: %d cold renders (suite_s median %.3f), %d warm renders, %d setup samples\n",
		len(cold), median(cold), len(warm), len(setups))
	return nil
}

// setupProbes measures set-up alone: worker processes that exit as soon
// as they are ready.
func setupProbes(b *bench, kind string) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbeCount; i++ {
		w, err := startWorker(b, kind, "-probe")
		if err != nil {
			return nil, err
		}
		var none any
		if _, err := w.finish(&none); err != nil {
			return nil, err
		}
		out = append(out, w.setup.Seconds())
	}
	return out, nil
}

// setupProbeCount is how many set-up-only worker starts a run adds to the
// set-up sample.
const setupProbeCount = 20
