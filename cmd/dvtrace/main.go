// Command dvtrace records a simulation as a structured event trace (JSONL),
// summarises a previously recorded trace, or exports it as Chrome
// trace-event JSON loadable in Perfetto — the workflow graphics engineers
// use on real devices, on the simulated stack.
//
// Usage:
//
//	dvtrace -record -mode dvsync -o run.jsonl      # simulate and dump JSONL
//	dvtrace -record -mode dvsync -perfetto out.json # simulate and export
//	dvtrace run.jsonl                              # analyse a dump
//	dvtrace -timeline run.jsonl                    # ASCII timeline
//	dvtrace -spans run.jsonl                       # per-frame stage table
//	dvtrace -perfetto out.json run.jsonl           # convert JSONL → Perfetto
//	dvtrace -check out.json                        # validate an export
//	dvtrace -why run.jsonl                         # cause chains per jank
//	dvtrace -why anomaly.dump                      # same, from a flight dump
//
// Open exports at https://ui.perfetto.dev (or chrome://tracing): per-frame
// spans land on ui/render/queue/display tracks, counters and markers below.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dvsync"
	"dvsync/internal/flight"
	"dvsync/internal/obs"
	"dvsync/internal/trace"
	"dvsync/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks command-line misuse (exit 2, like flag parsing errors).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run is the testable entry point: it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record   = fs.Bool("record", false, "run a simulation and dump its trace")
		mode     = fs.String("mode", "dvsync", "vsync or dvsync (with -record)")
		hz       = fs.Int("hz", 60, "panel refresh rate (with -record)")
		buffers  = fs.Int("buffers", 4, "buffer count (with -record)")
		frames   = fs.Int("frames", 240, "workload frames (with -record)")
		seed     = fs.Int64("seed", 1, "workload seed (with -record)")
		out      = fs.String("o", "", "JSONL output path (default stdout)")
		perfetto = fs.String("perfetto", "", "write a Perfetto (Chrome trace-event JSON) export to this path")
		timeline = fs.Bool("timeline", false, "render an ASCII timeline instead of a summary")
		spans    = fs.Bool("spans", false, "render the per-frame stage table instead of a summary")
		check    = fs.Bool("check", false, "validate a Perfetto export file and exit")
		why      = fs.Bool("why", false, "attribute every jank/edge-missed/fallback of a trace or anomaly dump to its cause chain")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	err := dispatch(fs, set, *record, *mode, *hz, *buffers, *frames, *seed,
		*out, *perfetto, *timeline, *spans, *check, *why, stdout)
	switch err.(type) {
	case nil:
		return 0
	case usageError:
		fmt.Fprintln(stderr, "dvtrace:", err)
		fs.Usage()
		return 2
	default:
		fmt.Fprintln(stderr, "dvtrace:", err)
		return 1
	}
}

// dispatch validates the flag combination and runs the selected action.
// All validation happens before any file is opened or written, and
// meaningless combinations are rejected up front (exit 2) instead of being
// silently ignored: `-record -timeline` can never look like it produced a
// timeline, and `-check -seed 7` can never look like the seed mattered.
// set holds the flags explicitly present on the command line (fs.Visit),
// which distinguishes `-hz 60` (set to its default) from an untouched
// default.
func dispatch(fs *flag.FlagSet, set map[string]bool, record bool, mode string, hz, buffers, frames int,
	seed int64, out, perfetto string, timeline, spans, check, why bool, stdout io.Writer) error {
	if timeline && spans {
		return usageError{"-timeline and -spans are mutually exclusive"}
	}
	switch {
	case why:
		if record || timeline || spans || check || perfetto != "" {
			return usageError{"-why takes only a recorded trace or anomaly dump"}
		}
		if err := rejectSetFlags(set, "-why"); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usageError{"-why requires exactly one trace or dump file"}
		}
		return doWhy(fs.Arg(0), stdout)
	case check:
		if record || timeline || spans || perfetto != "" {
			return usageError{"-check takes only a Perfetto export file"}
		}
		if err := rejectSetFlags(set, "-check"); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return usageError{"-check requires exactly one export file"}
		}
		return doCheck(fs.Arg(0), stdout)
	case record:
		if timeline || spans {
			return usageError{"-record does not analyse; rerun dvtrace on the recorded file for -timeline/-spans"}
		}
		if fs.NArg() != 0 {
			return usageError{fmt.Sprintf("-record takes no input file (got %q)", fs.Arg(0))}
		}
		m, err := parseMode(mode)
		if err != nil {
			return err
		}
		return doRecord(m, hz, buffers, frames, seed, out, perfetto, stdout)
	case fs.NArg() == 1:
		if err := rejectSetFlags(set, "trace analysis"); err != nil {
			return err
		}
		return doAnalyse(fs.Arg(0), perfetto, timeline, spans, stdout)
	default:
		return usageError{"expected -record, -check, or one recorded trace file"}
	}
}

// recordOnlyFlags only affect `-record` runs; anywhere else their presence
// means the user expected an effect they will not get.
var recordOnlyFlags = []string{"mode", "hz", "buffers", "frames", "seed", "o"}

// rejectSetFlags fails if any recording flag was explicitly set for an
// action that would silently ignore it.
func rejectSetFlags(set map[string]bool, action string) error {
	for _, n := range recordOnlyFlags {
		if set[n] {
			return usageError{fmt.Sprintf("-%s is a recording flag; %s ignores it", n, action)}
		}
	}
	return nil
}

// parseMode maps the -mode flag to an architecture; unknown strings are a
// usage error (exit 2), never a silent dvsync default.
func parseMode(mode string) (dvsync.Mode, error) {
	switch mode {
	case "vsync":
		return dvsync.VSync, nil
	case "dvsync":
		return dvsync.DVSync, nil
	default:
		return 0, usageError{fmt.Sprintf("unknown mode %q (want vsync or dvsync)", mode)}
	}
}

func doRecord(m dvsync.Mode, hz, buffers, frames int, seed int64,
	out, perfetto string, stdout io.Writer) error {
	period := dvsync.PeriodForHz(hz).Milliseconds()
	p := workload.DefaultProfile("dvtrace", period)
	rec := dvsync.NewRecorder()
	dvsync.Run(dvsync.Config{
		Mode: m, Panel: dvsync.PanelConfig{Name: "dvtrace", RefreshHz: hz},
		Buffers: buffers, Trace: p.Generate(frames, seed), Recorder: rec,
	})
	if perfetto != "" {
		if err := writeFile(perfetto, func(w io.Writer) error {
			return obs.ExportPerfetto(rec, w)
		}); err != nil {
			return err
		}
		if out == "" {
			return nil // Perfetto-only recording: don't also spray JSONL at stdout.
		}
	}
	if out != "" {
		return writeFile(out, rec.WriteJSONL)
	}
	return rec.WriteJSONL(stdout)
}

func doAnalyse(path, perfetto string, timeline, spans bool, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	if perfetto != "" {
		return writeFile(perfetto, func(w io.Writer) error {
			return obs.ExportPerfetto(rec, w)
		})
	}
	if timeline {
		fmt.Fprint(stdout, trace.RenderTimeline(rec, 120))
		return nil
	}
	if spans {
		obs.Build(rec).WriteSpanTable(stdout)
		return nil
	}
	s := trace.Summarize(rec)
	fmt.Fprintf(stdout, "events            %d over %s\n", rec.Len(), s.Span)
	kinds := make([]string, 0, len(s.Events))
	for kind := range s.Events {
		kinds = append(kinds, string(kind))
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Fprintf(stdout, "  %-14s  %d\n", kind, s.Events[trace.EventKind(kind)])
	}
	fmt.Fprintf(stdout, "frames presented  %d\n", s.Frames)
	fmt.Fprintf(stdout, "janks             %d\n", s.Janks)
	fmt.Fprintf(stdout, "mean queue wait   %.2f ms\n", s.MeanQueueLatency)
	fmt.Fprintf(stdout, "decoupled share   %.0f%%\n", 100*s.DecoupledShare)
	return nil
}

func doCheck(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := obs.ValidatePerfettoReport(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: valid Perfetto export (trace schema v%d)\n", path, rep.SchemaVersion)
	fmt.Fprintf(stdout, "  events  %d (%d frame spans over %d frames, %d counter samples, %d instants)\n",
		rep.Events, rep.Spans, rep.Frames, rep.Counters, rep.Instants)
	fmt.Fprintf(stdout, "  tracks  %s\n", strings.Join(rep.Tracks, " "))
	return nil
}

// doWhy attributes every jank / edge-missed / fallback instant of a
// recorded trace — or of the event window inside a flight-recorder
// anomaly dump — to its proximate and root cause.
func doWhy(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var events []trace.Event
	switch d, digest, derr := flight.DecodeDump(bytes.NewReader(data), ""); {
	case derr == nil:
		fmt.Fprintf(stdout, "anomaly dump: trigger=%s at %s config=%.12s events=%d\n",
			d.Trigger.Kind, d.Trigger.At, digest, len(d.Events))
		if d.Trigger.Detail != "" {
			fmt.Fprintf(stdout, "  %s\n", d.Trigger.Detail)
		}
		events = d.Events
	case errors.Is(derr, flight.ErrNotEnvelope):
		// Not an envelope at all: treat it as a JSONL trace.
		rec, rerr := trace.ReadJSONL(bytes.NewReader(data))
		if rerr != nil {
			return rerr
		}
		events = rec.Events()
	default:
		return derr
	}
	obs.WriteCauseTable(stdout, obs.Attribute(events))
	return nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
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
