package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dvsync/internal/lint"
)

// exec drives the CLI the way main does and returns its exit code plus
// captured output.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestNoMatchingPackagesExits2 is the regression test for the silent-pass
// bug: a pattern matching no Go packages used to exit 0, letting a typoed
// CI path disable the whole gate.
func TestNoMatchingPackagesExits2(t *testing.T) {
	t.Parallel()
	code, _, stderr := exec(t, "./does/not/exist")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "matches no Go packages") {
		t.Fatalf("stderr lacks a clear no-match error: %q", stderr)
	}
	if !strings.Contains(stderr, "./does/not/exist") {
		t.Fatalf("stderr does not name the offending pattern: %q", stderr)
	}
}

// TestUnsupportedPatternExits2: a malformed pattern is a usage error,
// reported before the module is loaded.
func TestUnsupportedPatternExits2(t *testing.T) {
	t.Parallel()
	code, _, stderr := exec(t, "/absolute/path")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unsupported pattern") {
		t.Fatalf("stderr: %q", stderr)
	}
}

// TestParsePatterns pins the pattern syntax: the forms it accepts, the
// directory and depth each selects, and the forms it rejects.
func TestParsePatterns(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		arg       string
		dir       string
		recursive bool
		bad       bool
	}{
		{arg: ".", recursive: true},
		{arg: "./...", recursive: true},
		{arg: ".//", recursive: true},
		{arg: "./.../...", recursive: true},
		{arg: "./internal/sim", dir: "internal/sim"},
		{arg: "./internal/sim/", dir: "internal/sim"},
		{arg: "./internal/...", dir: "internal", recursive: true},
		{arg: "./cmd/dvlint/...", dir: "cmd/dvlint", recursive: true},
		{arg: "", bad: true},
		{arg: "..", bad: true},
		{arg: "internal/sim", bad: true},
		{arg: "/absolute/path", bad: true},
		{arg: "dvsync/internal/sim", bad: true},
	} {
		got, err := parsePatterns([]string{tc.arg})
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), "unsupported pattern") {
				t.Errorf("%q: parsed as %+v (err %v), want an unsupported-pattern error", tc.arg, got, err)
			}
			continue
		}
		want := pattern{text: tc.arg, dir: tc.dir, recursive: tc.recursive}
		if err != nil || len(got) != 1 || got[0] != want {
			t.Errorf("%q: parsed as %+v (err %v), want %+v", tc.arg, got, err, want)
		}
	}
}

// TestSelectPackages pins how patterns pick import paths before anything
// is loaded: a package matches its own pattern, a subtree pattern matches
// the packages below it, and a pattern matching nothing is an error.
func TestSelectPackages(t *testing.T) {
	t.Parallel()
	paths := []string{"m", "m/cmd/a", "m/cmd/ab", "m/internal/x", "m/internal/x/y"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"./..."}, "m m/cmd/a m/cmd/ab m/internal/x m/internal/x/y"},
		{[]string{"."}, "m m/cmd/a m/cmd/ab m/internal/x m/internal/x/y"},
		{[]string{"./cmd/a"}, "m/cmd/a"},
		{[]string{"./internal/x/..."}, "m/internal/x m/internal/x/y"},
		{[]string{"./cmd/ab", "./internal/x"}, "m/cmd/ab m/internal/x"},
	} {
		patterns, err := parsePatterns(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := selectPackages("m", paths, patterns)
		if err != nil || strings.Join(got, " ") != tc.want {
			t.Errorf("%q: selected %q (err %v), want %q", tc.args, got, err, tc.want)
		}
	}
	patterns, _ := parsePatterns([]string{"./cmd", "./internal/x"})
	if _, err := selectPackages("m", paths, patterns); err == nil || !strings.Contains(err.Error(), `"./cmd"`) {
		t.Errorf("a pattern matching no package: err %v, want one naming it", err)
	}
}

// TestListNamesEveryAnalyzer pins the -list output to the registered rule
// set.
func TestListNamesEveryAnalyzer(t *testing.T) {
	t.Parallel()
	code, stdout, stderr := exec(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit = %d; stderr: %s", code, stderr)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list output is missing rule %s", a.Name)
		}
	}
}

// TestJSONEmitsArray checks the machine-readable path: valid JSON, an
// array even when empty.
func TestJSONEmitsArray(t *testing.T) {
	t.Parallel()
	code, stdout, stderr := exec(t, "-json", "./internal/lint")
	if code != 0 {
		t.Fatalf("exit = %d; stdout: %s stderr: %s", code, stdout, stderr)
	}
	var findings []lint.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON findings array: %v\n%s", err, stdout)
	}
	if findings == nil {
		t.Fatalf("JSON output decodes to nil, want an (empty) array: %s", stdout)
	}
}

// TestSubtreeAndSinglePackagePatterns exercises the ./dir and ./dir/...
// forms over packages known to be clean.
func TestSubtreeAndSinglePackagePatterns(t *testing.T) {
	t.Parallel()
	for _, pat := range []string{"./internal/lint", "./cmd/..."} {
		code, stdout, stderr := exec(t, pat)
		if code != 0 {
			t.Fatalf("%s: exit = %d; stdout: %s stderr: %s", pat, code, stdout, stderr)
		}
	}
}
