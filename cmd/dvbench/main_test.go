package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the CLI entry point and returns exit code + streams.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestTwoExportsRejected: regression for `-trace-dir A -metrics-dir B`
// exporting only to A while reporting snapshots written to B. Now it exits
// 2 before either directory is created.
func TestTwoExportsRejected(t *testing.T) {
	a, b := filepath.Join(t.TempDir(), "A"), filepath.Join(t.TempDir(), "B")
	code, stdout, stderr := runCLI("-exp", "fig7", "-trace-dir", a, "-metrics-dir", b)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stderr, "-trace-dir and -metrics-dir") {
		t.Errorf("stderr %q does not name the conflicting flags", stderr)
	}
	for _, dir := range []string{a, b} {
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s was created by a rejected command line", dir)
		}
	}
}

// TestIgnoredFlagsRejected: every combination in which dvbench used to
// ignore a flag without saying so exits 2 with a message, and writes
// nothing.
func TestIgnoredFlagsRejected(t *testing.T) {
	tmp := t.TempDir()
	out := func(name string) string { return filepath.Join(tmp, name) }
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-csv", out("c"), "-trace-dir", out("t")}, "-csv and -trace-dir"},
		{[]string{"-csv", out("c"), "-metrics-dir", out("m")}, "-csv and -metrics-dir"},
		{[]string{"-quick", "-exp", "fig7", "-trace-dir", out("t")}, "-quick has no effect with -trace-dir"},
		{[]string{"-quick", "-metrics-dir", out("m")}, "-quick has no effect with -metrics-dir"},
		{[]string{"-quick", "-csv", out("c")}, "-quick has no effect with -csv"},
		{[]string{"-bench-json", out("b.json"), "-exp", "fig7"}, "-exp has no effect with -bench-json"},
		{[]string{"-bench-json", out("b.json"), "-quick"}, "-quick has no effect with -bench-json"},
		{[]string{"-bench-json", out("b.json"), "-trace-dir", out("t")}, "-trace-dir has no effect with -bench-json"},
		{[]string{"-bench-json", out("b.json"), "-metrics-dir", out("m")}, "-metrics-dir has no effect with -bench-json"},
		{[]string{"-bench-json", out("b.json"), "-csv", out("c")}, "-csv has no effect with -bench-json"},
		{[]string{"-bench-json", out("b.json"), "-workers", "2"}, "-workers has no effect with -bench-json"},
		{[]string{"-list", "-exp", "fig7"}, "-exp has no effect with -list"},
		{[]string{"-bench-baseline", out("base.json")}, "-bench-baseline requires -bench-json"},
		{[]string{"fig7"}, `unexpected argument "fig7"`},
		{[]string{"-exp", "nope"}, `unknown experiment "nope"`},
	}
	for _, c := range cases {
		code, stdout, stderr := runCLI(c.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: a rejected command line printed %q", c.args, stdout)
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("rejected command lines wrote %d entries", len(left))
	}
}

// TestSingleExportWritesDir: the accepted path still exports, and its
// summary line names a directory that exists.
func TestSingleExportWritesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	code, stdout, stderr := runCLI("-exp", "fig7", "-metrics-dir", dir)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, stderr)
	}
	if want := "wrote telemetry snapshots for 1 experiments to " + dir + "\n"; stdout != want {
		t.Errorf("stdout %q, want %q", stdout, want)
	}
	for _, name := range []string{"fig7-vsync.prom", "fig7-dvsync.metrics.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}

func TestListAndRender(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 || !strings.Contains(stdout, "fig11") {
		t.Errorf("-list: exit %d, output %q", code, stdout)
	}
	code, stdout, stderr := runCLI("-exp", "table1", "-workers", "1")
	if code != 0 || !strings.Contains(stdout, "Table 1") {
		t.Errorf("-exp table1: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
