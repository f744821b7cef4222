// Command dvbench regenerates the paper's tables and figures from
// simulation.
//
// Usage:
//
//	dvbench                 # run every experiment
//	dvbench -exp fig11      # run one experiment
//	dvbench -quick          # reduced configurations where available (CI smoke)
//	dvbench -workers 4      # bound the parallel runner (1 = serial legacy path)
//	dvbench -list           # list experiment IDs
//	dvbench -csv results/   # export every table as CSV instead of printing it
//	dvbench -trace-dir traces/  # dump one Perfetto export per experiment cell
//	dvbench -metrics-dir metrics/  # dump telemetry snapshots per experiment cell
//	dvbench -bench-json BENCH_pr.json [-bench-baseline BENCH_baseline.json]
//	                        # run the pinned benchmarks; with a baseline,
//	                        # exit 1 if any measure regresses past tolerance
//
// The three exports are exclusive and always run the full configuration.
// A command line in which some flag would have no effect (two exports,
// -quick with an export, experiment flags with -bench-json) exits 2.
//
// Experiments fan replica simulations out over a deterministic worker pool
// (internal/par); the output is byte-identical at any -workers value, only
// the wall-clock changes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"dvsync"
	"dvsync/internal/bench"
	"dvsync/internal/exp"
	"dvsync/internal/obs"
	"dvsync/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks command-line misuse (exit 2, like flag parsing errors).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// options is the parsed command line.
type options struct {
	expID, csvDir, traceDir, metricsDir string
	benchJSON, benchBase                string
	list, quick                         bool
	workers                             int
}

// run is the testable entry point: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.expID, "exp", "", "experiment ID to run (default: all)")
	fs.BoolVar(&o.list, "list", false, "list experiment IDs and exit")
	fs.BoolVar(&o.quick, "quick", false, "use reduced experiment configurations where available")
	fs.StringVar(&o.csvDir, "csv", "", "directory to export tables as CSV files")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory to dump one Perfetto export per experiment cell")
	fs.StringVar(&o.metricsDir, "metrics-dir", "", "directory to dump one telemetry snapshot pair per experiment cell")
	fs.StringVar(&o.benchJSON, "bench-json", "", "run the pinned benchmarks and write a perf-trajectory snapshot to this file")
	fs.StringVar(&o.benchBase, "bench-baseline", "", "baseline to compare -bench-json results against; exit 1 on regression")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := checkFlags(fs, o)
	if err == nil {
		err = dispatch(o, stdout, stderr)
	}
	switch err.(type) {
	case nil:
		return 0
	case usageError:
		fmt.Fprintln(stderr, "dvbench:", err)
		return 2
	default:
		fmt.Fprintln(stderr, "dvbench:", err)
		return 1
	}
}

// checkFlags rejects, before anything runs or is written, every flag
// combination in which a flag would be silently ignored: a second export
// directory that is never created, -quick under an export (exports always
// run the full configuration), or experiment flags next to -bench-json.
func checkFlags(fs *flag.FlagSet, o options) error {
	if fs.NArg() > 0 {
		return usageError{fmt.Sprintf("unexpected argument %q (select an experiment with -exp)", fs.Arg(0))}
	}
	if o.benchBase != "" && o.benchJSON == "" {
		return usageError{"-bench-baseline requires -bench-json"}
	}
	workersSet := false
	fs.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	set := map[string]bool{
		"exp": o.expID != "", "list": o.list, "quick": o.quick, "workers": workersSet,
		"csv": o.csvDir != "", "trace-dir": o.traceDir != "", "metrics-dir": o.metricsDir != "",
	}
	given := func(names ...string) []string {
		var out []string
		for _, n := range names {
			if set[n] {
				out = append(out, "-"+n)
			}
		}
		return out
	}
	exports := given("csv", "trace-dir", "metrics-dir")
	switch {
	case o.benchJSON != "":
		if g := given("exp", "list", "quick", "workers", "csv", "trace-dir", "metrics-dir"); len(g) > 0 {
			return usageError{fmt.Sprintf("%s has no effect with -bench-json, which only runs the pinned benchmarks", g[0])}
		}
	case o.list:
		if g := given("exp", "quick", "csv", "trace-dir", "metrics-dir"); len(g) > 0 {
			return usageError{fmt.Sprintf("%s has no effect with -list", g[0])}
		}
	case len(exports) > 1:
		return usageError{fmt.Sprintf("%s and %s cannot be combined; run dvbench once per export", exports[0], exports[1])}
	case len(exports) == 1 && o.quick:
		return usageError{fmt.Sprintf("-quick has no effect with %s: exports always run the full configuration", exports[0])}
	}
	return nil
}

// dispatch runs the action a checked command line selects.
func dispatch(o options, stdout, stderr io.Writer) error {
	if o.benchJSON != "" {
		return runBenchGate(o.benchJSON, o.benchBase, stdout, stderr)
	}
	par.SetWorkers(o.workers)
	if o.list {
		for _, e := range dvsync.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	run := dvsync.Experiments()
	if o.expID != "" {
		e, ok := dvsync.FindExperiment(o.expID)
		if !ok {
			return usageError{fmt.Sprintf("unknown experiment %q (try -list)", o.expID)}
		}
		run = []dvsync.Experiment{e}
	}
	var (
		export    func(string, dvsync.Experiment) error
		dir, what string
	)
	switch {
	case o.traceDir != "":
		export, dir, what = exportTraces, o.traceDir, "Perfetto exports"
	case o.metricsDir != "":
		export, dir, what = exportMetrics, o.metricsDir, "telemetry snapshots"
	case o.csvDir != "":
		export, dir, what = exportCSV, o.csvDir, "CSV tables"
	}
	for i, e := range run {
		if export != nil {
			if err := export(dir, e); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if o.quick && e.RunQuick != nil {
			e.RunQuick(stdout)
		} else {
			e.Run(stdout)
		}
	}
	if export != nil {
		fmt.Fprintf(stdout, "wrote %s for %d experiments to %s\n", what, len(run), dir)
	}
	return nil
}

// runBenchGate measures the pinned benchmark set, writes the trajectory
// snapshot, and — when a baseline is given — fails on any regression past
// the default tolerances.
func runBenchGate(outPath, basePath string, stdout, stderr io.Writer) error {
	results := bench.Run()
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	werr := bench.WriteJSON(f, results,
		"perf-trajectory snapshot written by dvbench -bench-json; gated against BENCH_baseline.json")
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	for _, p := range bench.Benchmarks() {
		r := results[p.Name]
		line := fmt.Sprintf("%-28s %12.0f ns/op %10d B/op %8d allocs/op",
			p.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.RunsPerSec > 0 {
			line += fmt.Sprintf(" %10.1f runs/sec", r.RunsPerSec)
		}
		fmt.Fprintln(stdout, line)
	}
	if basePath == "" {
		return nil
	}
	bf, err := os.Open(basePath)
	if err != nil {
		return err
	}
	base, err := bench.ReadBaseline(bf)
	bf.Close()
	if err != nil {
		return err
	}
	if msgs := bench.Compare(results, base, bench.DefaultTolerance()); len(msgs) > 0 {
		for _, m := range msgs {
			fmt.Fprintln(stderr, "dvbench: bench regression:", m)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(msgs), basePath)
	}
	fmt.Fprintf(stdout, "bench gate passed: %d benchmarks within tolerance of %s\n", len(base), basePath)
	return nil
}

// exportMetrics dumps each canonical cell's telemetry as a Prometheus
// exposition (<cell>.prom) and a JSON snapshot (<cell>.metrics.json).
func exportMetrics(dir string, e dvsync.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cell := range exp.MetricsCells(e.ID) {
		if err := writeFileWith(filepath.Join(dir, cell.Name+".prom"), cell.Registry.WritePrometheus); err != nil {
			return err
		}
		if err := writeFileWith(filepath.Join(dir, cell.Name+".metrics.json"), cell.Registry.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// writeFileWith creates path and streams write(f) into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportTraces dumps one Perfetto export per canonical cell of the
// experiment into dir.
func exportTraces(dir string, e dvsync.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cell := range exp.TraceCells(e.ID) {
		f, err := os.Create(filepath.Join(dir, cell.Name+".perfetto.json"))
		if err != nil {
			return err
		}
		if err := obs.ExportPerfetto(cell.Recorder, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func exportCSV(dir string, e dvsync.Experiment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range e.Tables() {
		name := e.ID
		if i > 0 {
			name += "-" + strconv.Itoa(i+1)
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		t.CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
