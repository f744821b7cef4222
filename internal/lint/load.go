package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("dvsync/internal/sim").
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset maps positions (shared across the whole load).
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression annotations.
	Info *types.Info
}

// Loader loads and type-checks the module's packages from source, resolving
// stdlib imports through the compiler's source importer so the whole
// pipeline works offline with zero external dependencies.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import path prefix.
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
}

// NewLoader prepares a loader for the module rooted at dir.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Discover lists the import paths of every package under the module root
// (the ./... pattern), sorted, without parsing or type-checking any of
// them. Hidden directories, testdata, and vendor trees are skipped, as are
// _test.go files: the contract is enforced on code that can reach the
// simulation, and tests are covered separately by `go test -race`.
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(sourceFiles(p)) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Load loads and type-checks the module-local packages at paths, in
// order. Only they and the packages they import are type-checked.
func (l *Loader) Load(paths []string) ([]*Package, error) {
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// sourceFiles lists the non-test .go files of a directory, sorted.
func sourceFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// Import implements types.Importer: module-local paths load from source
// here, everything else falls through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pathIn(path, l.ModulePath) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one module-local package, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	names := sourceFiles(dir)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := l.check(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks a parsed file set as the package at path.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// CheckFile type-checks a single standalone file as a package with the
// given import path — the fixture harness used by the analyzer tests.
// Imports resolve exactly as in a full load, so fixtures may import both
// stdlib and module-local packages (e.g. internal/simtime).
func (l *Loader) CheckFile(path, filename string) (*Package, error) {
	f, err := parser.ParseFile(l.fset, filename, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(path, filepath.Dir(filename), []*ast.File{f})
}
