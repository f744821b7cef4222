// Command dvlint runs the determinism and invariant static-analysis suite
// over the module and exits non-zero on violations.
//
// Usage:
//
//	dvlint ./...                          # lint every package in the module
//	dvlint ./internal/sim                 # lint one package
//	dvlint ./internal/...                 # lint a subtree
//	dvlint -list                          # list the rules
//	dvlint -json ./...                    # machine-readable findings
//
// Violations print in the compiler's file:line:col format. A finding can be
// suppressed in place with a justified directive:
//
//	//dvlint:ignore <rule> <reason>
//
// on the offending line or the line directly above it. Directives that name
// an unknown rule or omit the reason are themselves violations.
//
// Exit status: 0 clean, 1 any finding, 2 usage or load errors — including
// a package pattern that matches nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dvsync/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so tests can drive the CLI
// end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the rules and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: dvlint [-list] [-json] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	// Check the patterns first: a malformed one needs no module load.
	patternArgs := fs.Args()
	if len(patternArgs) == 0 {
		patternArgs = []string{"./..."}
	}
	patterns, err := parsePatterns(patternArgs)
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}
	// Select before loading: only the selected packages and their imports
	// are type-checked, and a pattern that matches nothing loads nothing.
	paths, err := loader.Discover()
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}
	paths, err = selectPackages(loader.ModulePath, paths, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}
	selected, err := loader.Load(paths)
	if err != nil {
		fmt.Fprintln(stderr, "dvlint:", err)
		return 2
	}

	findings := lint.Findings(root, lint.Run(selected, analyzers))

	if *jsonOut {
		data, err := lint.EncodeFindings(findings)
		if err != nil {
			fmt.Fprintln(stderr, "dvlint:", err)
			return 2
		}
		if _, err := stdout.Write(data); err != nil {
			fmt.Fprintln(stderr, "dvlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(stderr, "dvlint: %d violation(s)\n", n)
		return 1
	}
	return 0
}

// pattern is one parsed package pattern: a directory relative to the
// module root ("" for the root) and whether it covers the subtree below.
type pattern struct {
	text      string
	dir       string
	recursive bool
}

// parsePatterns checks the syntax of the package patterns. Supported
// forms: "./..." and "." (whole module), "./dir" (one package),
// "./dir/..." (a subtree).
func parsePatterns(args []string) ([]pattern, error) {
	patterns := make([]pattern, 0, len(args))
	for _, arg := range args {
		p := pattern{text: arg}
		switch {
		case arg == "." || arg == "./...":
			p.recursive = true
		case strings.HasPrefix(arg, "./"):
			rel := strings.TrimPrefix(arg, "./")
			if strings.HasSuffix(rel, "/...") {
				p.recursive = true
				rel = strings.TrimSuffix(rel, "/...")
			}
			rel = strings.Trim(rel, "/")
			if rel == "" || rel == "..." {
				p.recursive = true
			} else {
				p.dir = filepath.ToSlash(rel)
			}
		default:
			return nil, fmt.Errorf("unsupported pattern %q (use ./dir, ./dir/... or ./...)", arg)
		}
		patterns = append(patterns, p)
	}
	return patterns, nil
}

// selectPackages filters the module's package import paths down to the
// patterns. A pattern matching no package is an error — a typoed path
// silently linting nothing would defeat the gate.
func selectPackages(modPath string, paths []string, patterns []pattern) ([]string, error) {
	hits := make([]int, len(patterns))
	var out []string
	for _, pkg := range paths {
		matched := false
		for i, p := range patterns {
			path := modPath
			if p.dir != "" {
				path += "/" + p.dir
			}
			if pkg == path || (p.recursive && strings.HasPrefix(pkg, path+"/")) {
				hits[i]++
				matched = true
			}
		}
		if matched {
			out = append(out, pkg)
		}
	}
	for i, p := range patterns {
		if hits[i] == 0 {
			return nil, fmt.Errorf("pattern %q matches no Go packages in module %s", p.text, modPath)
		}
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
