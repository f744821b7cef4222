// Command perfbench is the repository's benchmark. It measures the three
// things users run — the paper reproduction suite, a fleet census and a
// dvserve traffic mix — end to end with tracing off, checks every output,
// and, with -trace 1, produces a per-layer cost ledger from spans it
// records around calls into each layer's public functions.
//
// Usage (from the root of a checkout; run.sh builds the binaries first):
//
//	bash _perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Every metric is also printed on its own line with
// its unit before it. BENCHMARK.json at the checkout root lists the
// workloads and metrics; the program reads it and refuses to report a
// metric set that differs from it.
//
// Only host time is noisy: every simulated quantity is deterministic, so
// the work counters a run reports must repeat exactly for a seed. Each
// run records them, keyed by seed and source digest, under
// .bench_build/ledger/ and fails if an earlier run of the same code and
// seed disagrees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	dvserve  string // built dvserve binary
}

// workloads maps each workload name to its measured run.
var workloads = map[string]func(*bench) error{
	"paper-suite":  runSuite,
	"fleet-census": runCensus,
	"serve-mix":    runServe,
}

func main() {
	var o opts
	var trace int
	child := flag.String("child", "", "internal: run one worker process of a workload (suite or census)")
	probe := flag.Bool("probe", false, "internal: worker exits as soon as its set-up is done")
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-suite, fleet-census or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "root of the checkout under test")
	flag.StringVar(&o.dvserve, "dvserve", "", "dvserve binary built from the checkout")
	flag.Parse()
	o.trace = trace == 1
	if *child != "" {
		if err := runChild(*child, o, *probe); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one worker process and prints its result as one JSON
// line after the "ready" line.
func runChild(kind string, o opts, probe bool) error {
	var res any
	var err error
	switch kind {
	case "suite":
		res, err = suiteChild(o, probe)
	case "census":
		res, err = censusChild(o, probe)
	default:
		return fmt.Errorf("unknown worker kind %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the program checks itself
// against.
type manifest struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// bench is the state of one run: its settings, the metrics and checks it
// has reported so far, and (traced runs) the span recorder.
type bench struct {
	opts
	values    map[string]float64
	attempted int
	failed    int
	counters  map[string]string // deterministic counters and digests, checked across runs
	tr        *tracer           // nil on untraced runs
}

// set records one metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// check counts one checked operation; a false ok is a failure, reported
// on stderr with its reason.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// count records a deterministic counter or digest for the cross-run
// ledger.
func (b *bench) count(name string, v any) { b.counters[name] = fmt.Sprint(v) }

func run(o opts) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.dvserve == "" {
		return fmt.Errorf("-dvserve is required (run through _perfbench/run.sh)")
	}
	measure, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want paper-suite, fleet-census or serve-mix)", o.workload)
	}
	man, err := readManifest(o.root)
	if err != nil {
		return err
	}
	b := &bench{opts: o, values: map[string]float64{}, counters: map[string]string{}}
	meta := hostMeta(o)
	for _, k := range sortedKeys(meta) {
		fmt.Printf("# %-12s %s\n", k, meta[k])
	}
	if o.trace {
		b.tr = newTracer()
		err = runLedger(b)
	} else {
		err = measure(b)
	}
	if err != nil {
		return err
	}
	if err := b.checkLedger(meta["source"]); err != nil {
		return err
	}
	specs := man.EndToEnd
	if o.trace {
		specs = man.PerLayer
	}
	return b.emit(specs)
}

// emit prints every metric on its own line and then the result object.
// The reported set must equal the declared one exactly.
func (b *bench) emit(specs []metricSpec) error {
	declared := map[string]bool{}
	metrics := map[string]any{}
	for _, s := range specs {
		declared[s.Name] = true
		v, ok := b.values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", s.Name)
		}
		line := fmt.Sprintf("%-34s %16.6g %-6s", s.Name, v, s.Unit)
		if t := target(s.Name); t != "" {
			line += "  -> " + t
		}
		fmt.Println(line)
		metrics[s.Name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, s.Unit}
	}
	for name := range b.values {
		if !declared[name] {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	fmt.Printf("# checks: %d attempted, %d failed, error_rate %.6g\n",
		b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{b.failed == 0, max(b.attempted, 1), b.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// checkLedger compares this run's deterministic counters with the first
// run of the same workload, seed, trace mode and source, and records
// them when no earlier run exists. A disagreement fails the run's checks.
func (b *bench) checkLedger(source string) error {
	dir := filepath.Join(b.root, ".bench_build", "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%s.json", b.workload, b.seed, b.trace, source)
	path := filepath.Join(dir, name)
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]string
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
		for _, k := range sortedKeys(b.counters) {
			b.check(prev[k] == b.counters[k], "counter %s = %s, an earlier run of seed %d had %s",
				k, b.counters[k], b.seed, prev[k])
		}
		return nil
	}
	data, err := json.MarshalIndent(b.counters, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hostMeta is recorded with every result: the seed and the host and
// source the numbers were measured on.
func hostMeta(o opts) map[string]string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"workload":   o.workload,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"trace":      fmt.Sprint(o.trace),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"source":     sourceDigest(o.root),
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
