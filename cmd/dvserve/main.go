// Command dvserve serves live simulation telemetry over HTTP: it runs
// deterministic scenarios on demand and exposes their metrics as a
// Prometheus text exposition, a JSON snapshot, and a Server-Sent-Events
// stream of sampled rows, plus net/http/pprof for host-side profiling of
// the simulator itself.
//
// Usage:
//
//	dvserve                                   # listen on 127.0.0.1:8377
//	dvserve -addr :9000 -mode vsync -hz 120
//
// Endpoints:
//
//	GET /metrics     Prometheus text exposition of one scenario run
//	GET /snapshot    JSON snapshot (schema: internal/telemetry.Snapshot)
//	GET /stream      SSE: one columns event, a sample event per sampled
//	                 row in virtual-time order, a final snapshot, then an
//	                 anomaly event per dump the run would capture
//	POST /fleet      JSON census spec in, SSE out: one cohort event per
//	                 cohort (followed by anomaly events naming its dumps),
//	                 then a terminal fleet event (DESIGN.md §14)
//	GET /anomalies   JSON list of flight-recorder anomaly dump ids from
//	                 scenario runs and censuses alike, in first-seen
//	                 order; the newest 1 024 are kept
//	GET /anomalies/{id}  one sealed dump envelope, rebuilt by replaying
//	                 the run that captured it (decode: dvtrace -why)
//	GET /healthz     liveness probe
//	GET /debug/pprof/  standard pprof handlers
//
// The flags select the default scenario; every request may override it
// with query parameters (mode, hz, buffers, frames, seed, fault,
// severity), e.g. /metrics?mode=vsync&hz=120 or /metrics?fault=stall.
// fault=none (or fault=) clears a default fault set with -fault, so a
// faulted server can still serve clean runs.
// Invalid parameters are an HTTP 400 with a JSON {"error": ...} body.
// Runs are deterministic: identical parameters produce byte-identical
// /metrics, /snapshot and /stream bodies on every request, so diffs
// between scrapes are parameter changes, never noise. The server runs a
// parameter set once and keeps the finished run for the newest 16 sets:
// repeat requests encode it and simulate nothing. The server keeps no
// state across restarts and needs none: after a crash, the same request
// runs the same scenario again and gets the same bytes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks command-line misuse (exit 2, like flag parsing errors).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run is the testable entry point: it returns the process exit code. All
// flag validation happens before the listener is opened, so a bad
// invocation can never bind a port first.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8377", "listen address")
		mode     = fs.String("mode", "dvsync", "default scenario architecture: vsync or dvsync")
		hz       = fs.Int("hz", 60, "default panel refresh rate")
		buffers  = fs.Int("buffers", 4, "default buffer count")
		frames   = fs.Int("frames", 240, "default workload frames")
		seed     = fs.Int64("seed", 1, "default workload seed")
		fault    = fs.String("fault", "", "default fault class injected into runs (see dvsim -fault-list)")
		severity = fs.Float64("fault-severity", 0.5, "default fault severity in [0, 1]")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := newParams(*mode, *hz, *buffers, *frames, *seed, *fault, *severity)
	if err == nil && fs.NArg() != 0 {
		err = usageError{fmt.Sprintf("unexpected argument %q", fs.Arg(0))}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dvserve:", err)
		fs.Usage()
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "dvserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dvserve listening on %s\n", ln.Addr())
	if err := http.Serve(ln, newServer(def, &runner{})); err != nil {
		fmt.Fprintln(stderr, "dvserve:", err)
		return 1
	}
	return 0
}
