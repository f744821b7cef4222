package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dvsync/internal/lint"
)

// moduleRoot is the repo root relative to this package's directory.
const moduleRoot = "../.."

func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// wantRE matches expectation markers in fixture files.
var wantRE = regexp.MustCompile(`// want (.+)$`)

// wants extracts the expected diagnostics of a fixture: line → sorted rule
// names. A trailing marker refers to its own line; a marker alone on a line
// refers to the line below it.
func wants(t *testing.T, filename string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	out := map[int][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRE.FindStringSubmatchIndex(line)
		if m == nil {
			continue
		}
		target := i + 1 // 1-based line of the marker
		if strings.TrimSpace(line[:m[0]]) == "" {
			target++ // own-line marker describes the next line
		}
		rules := strings.Fields(line[m[2]:m[3]])
		sort.Strings(rules)
		out[target] = rules
	}
	return out
}

// fixtures maps each fixture to the import path it is checked under: the
// nogoroutine fixture masquerades as dvsync/internal/sim — any path other
// than the internal/par carve-out would do (see
// TestNoGoroutineParCarveOut for the skip side).
var fixtures = []struct {
	file   string
	asPath string
}{
	{"nowallclock.go", "dvsync/internal/fixture"},
	{"seededrand.go", "dvsync/internal/fixture"},
	{"nogoroutine.go", "dvsync/internal/sim"},
	{"maporder.go", "dvsync/internal/fixture"},
	{"simtimeconfusion.go", "dvsync/internal/fixture"},
	{"directives.go", "dvsync/internal/fixture"},
	{"hotalloc.go", "dvsync/internal/fixture"},
	{"hotallocpkg.go", "dvsync/internal/fixture"},
	{"locksafe.go", "dvsync/internal/fixture"},
	{"errflow.go", "dvsync/internal/fixture"},
	{"detreduce.go", "dvsync/internal/fixture"},
}

// TestFixtures proves every analyzer catches its violation class and stays
// quiet on the sanctioned idioms, by checking each fixture's diagnostics
// against its // want markers exactly.
func TestFixtures(t *testing.T) {
	loader := newLoader(t)
	for _, fx := range fixtures {
		t.Run(strings.TrimSuffix(fx.file, ".go"), func(t *testing.T) {
			filename := filepath.Join("testdata", fx.file)
			pkg, err := loader.CheckFile(fx.asPath, filename)
			if err != nil {
				t.Fatalf("CheckFile: %v", err)
			}
			diags := lint.Run([]*lint.Package{pkg}, lint.Analyzers())

			got := map[int][]string{}
			for _, d := range diags {
				got[d.Pos.Line] = append(got[d.Pos.Line], d.Rule)
			}
			for _, rules := range got {
				sort.Strings(rules)
			}

			want := wants(t, filename)
			for line, rules := range want {
				if fmt.Sprint(got[line]) != fmt.Sprint(rules) {
					t.Errorf("line %d: got %v, want %v", line, got[line], rules)
				}
			}
			for line, rules := range got {
				if want[line] == nil {
					t.Errorf("line %d: unexpected diagnostics %v", line, rules)
				}
			}
			if len(want) == 0 {
				t.Fatalf("fixture %s has no // want markers", fx.file)
			}
		})
	}
}

// TestNoGoroutineParCarveOut pins the one allowlist exception: the same
// fixture that produces a page of diagnostics inside any other package
// must produce none when checked as dvsync/internal/par, the sanctioned
// worker pool.
func TestNoGoroutineParCarveOut(t *testing.T) {
	loader := newLoader(t)
	filename := filepath.Join("testdata", "nogoroutine.go")

	for _, tc := range []struct {
		asPath string
		clean  bool
	}{
		{"dvsync/internal/par", true},
		{"dvsync/cmd/dvserve", true},    // the HTTP server serves via goroutines by design
		{"dvsync/internal/exp", false},  // the harness is not exempt
		{"dvsync/cmd/dvbench", false},   // nor are other commands
		{"dvsync/internal/sim", false},  // nor the core
		{"dvsync/internal/part", false}, // prefix must not leak past the path boundary
		{"dvsync/cmd/dvserver", false},  // same for the dvserve carve-out
		{"dvsync/cmd/dvserve/x", true},  // subpackages inherit the carve-out, like par's
	} {
		pkg, err := loader.CheckFile(tc.asPath, filename)
		if err != nil {
			t.Fatalf("CheckFile(%s): %v", tc.asPath, err)
		}
		diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.NoGoroutine})
		if tc.clean && len(diags) != 0 {
			t.Errorf("%s: nogoroutine fired %d diagnostics inside the carve-out, want 0 (first: %s)",
				tc.asPath, len(diags), diags[0])
		}
		if !tc.clean && len(diags) == 0 {
			t.Errorf("%s: nogoroutine reported nothing, want diagnostics", tc.asPath)
		}
	}
}

// TestEachAnalyzerHasFailingFixture asserts the suite cannot silently lose
// coverage: every registered rule must be exercised by at least one
// expected violation across the fixtures.
func TestEachAnalyzerHasFailingFixture(t *testing.T) {
	covered := map[string]bool{}
	for _, fx := range fixtures {
		for _, rules := range wants(t, filepath.Join("testdata", fx.file)) {
			for _, r := range rules {
				covered[r] = true
			}
		}
	}
	for _, a := range lint.Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no failing fixture", a.Name)
		}
	}
	if !covered["dvlint"] {
		t.Error("directive validation has no failing fixture")
	}
}

// TestLoaderDiscoversModule sanity-checks ./... discovery: the facade, the
// simulation core, and the lint tooling itself must all be found, and
// testdata must not be. Discovery type-checks nothing.
func TestLoaderDiscoversModule(t *testing.T) {
	loader := newLoader(t)
	paths, err := loader.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	byPath := map[string]bool{}
	for _, p := range paths {
		byPath[p] = true
	}
	for _, want := range []string{
		"dvsync",
		"dvsync/internal/sim",
		"dvsync/internal/simtime",
		"dvsync/internal/lint",
		"dvsync/cmd/dvlint",
	} {
		if !byPath[want] {
			t.Errorf("Discover missed %s (got %d packages)", want, len(paths))
		}
	}
	for p := range byPath {
		if strings.Contains(p, "testdata") {
			t.Errorf("Discover must skip testdata, found %s", p)
		}
	}
}

// TestRepoIsClean enforces the static-analysis contract on the repository
// itself, the same gate cmd/dvlint applies in CI: the full ./... walk must
// show no findings. Fix a finding, or suppress it in place with a
// justified //dvlint:ignore.
func TestRepoIsClean(t *testing.T) {
	loader := newLoader(t)
	paths, err := loader.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	pkgs, err := loader.Load(paths)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	for _, f := range lint.Findings(root, lint.Run(pkgs, lint.Analyzers())) {
		t.Errorf("finding: %s", f)
	}
}
