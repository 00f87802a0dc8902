package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Module is the analyzed module: every package parsed and type-checked,
// using only the standard library (go/parser, go/types, go/importer) so
// the module itself stays zero-dependency.
type Module struct {
	// Root is the directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset owns all source positions.
	Fset *token.FileSet

	pkgs     map[string]*Package
	checking map[string]bool
	imp      *chainImporter

	// extras are packages loaded through CheckDir (fixture testdata),
	// kept in registration order so the call graph can include them
	// deterministically. fixtureRoot, when set, lets the importer
	// resolve `fixture/<name>` imports to sibling testdata directories.
	extras      map[string]*Package
	extraOrder  []string
	fixtureRoot string
	graph       *Graph
	useIdx      *useIndex
}

// Package is one parsed, type-checked package. Test files are excluded:
// greenvet's invariants guard the artifact-producing plane, and the
// detclock allowlist exempts _test.go by construction.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker complaints; analysis proceeds on
	// partial information, falling back to syntax where types are missing.
	TypeErrors []error
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// LoadModule discovers, parses and type-checks every package under root.
func LoadModule(root string) (*Module, error) {
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:     root,
		Path:     modPath,
		Fset:     token.NewFileSet(),
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
		extras:   map[string]*Package{},
	}
	m.imp = newChainImporter(m)
	dirs, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		path := m.importPath(dir)
		if _, err := m.parseDir(dir, path); err != nil {
			return nil, err
		}
	}
	for _, path := range m.PackagePaths() {
		if _, err := m.check(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// PackagePaths returns the module's package import paths, sorted.
func (m *Module) PackagePaths() []string {
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Package returns the loaded package with that import path, or nil.
func (m *Module) Package(path string) *Package { return m.pkgs[path] }

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs walks the module tree for directories holding non-test Go
// files, skipping testdata, vendor and hidden directories.
func (m *Module) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// goFileNames lists dir's non-test Go files that build on this platform,
// sorted. Files excluded by a //go:build constraint are skipped exactly
// as the go tool would skip them — otherwise platform-variant file pairs
// (foo_unix.go / foo_other.go) would load together and type-check as
// duplicate declarations.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if !buildsHere(filepath.Join(dir, n)) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// buildsHere reports whether the file's //go:build line (if any) selects
// it for the analyzing platform. A file that cannot be read or whose
// constraint cannot be parsed is included, so the parser and checker get
// to report the real problem.
func buildsHere(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return true
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break // constraints must precede the package clause
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true
		}
		return expr.Eval(buildTagSatisfied)
	}
	return true
}

// unixGOOS mirrors the go tool's "unix" build-tag membership.
var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "hurd": true, "illumos": true, "ios": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// buildTagSatisfied evaluates one build tag for the analyzing platform:
// the host GOOS/GOARCH, the "unix" alias, and any go1.x version tag
// (the toolchain compiling this analyzer is the one that would compile
// the analyzed file).
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH:
		return true
	case "unix":
		return unixGOOS[runtime.GOOS]
	}
	return strings.HasPrefix(tag, "go1.")
}

func (m *Module) importPath(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// parseDir parses dir's non-test files into a registered Package.
func (m *Module) parseDir(dir, path string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// check type-checks the registered package at path (and, through the
// importer, its module-internal dependencies first).
func (m *Module) check(path string) (*Package, error) {
	pkg, ok := m.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown package %q", path)
	}
	if pkg.Types != nil {
		return pkg, nil
	}
	if m.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	m.checking[path] = true
	defer delete(m.checking, path)

	info := newInfo()
	conf := types.Config{
		Importer: m.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, pkg.Files, info) // errors land in TypeErrors
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// SetFixtureRoot points the importer at a directory of fixture
// packages: an import of "fixture/<name>" from a CheckDir'd package
// resolves to <root>/<name>, loaded through CheckDir on demand. Tests
// use this so a fixture can exercise cross-package analysis.
//
//greenvet:allow unusedexport -- tests in other packages depend on it: the fixture tests of package analysis_test
func (m *Module) SetFixtureRoot(root string) { m.fixtureRoot = root }

// InvalidateGraph drops the cached call graph so the next Graph call
// rebuilds it — benchmarks use it to time whole builds.
//
//greenvet:allow unusedexport -- tests in other packages depend on it: the call-graph benchmark of package analysis_test
func (m *Module) InvalidateGraph() { m.graph = nil }

// CheckDir parses and type-checks a directory outside the module tree
// (fixture testdata) under the given import path, resolving imports
// through the module. The package does not join the module's rule-table
// walk, but it is registered with the call graph so interprocedural
// analyzers see across fixture package boundaries.
func (m *Module) CheckDir(dir, path string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	// Register before type-checking so fixture-to-fixture import cycles
	// fail in the checker instead of recursing in the importer.
	if _, seen := m.extras[path]; !seen {
		m.extraOrder = append(m.extraOrder, path)
	}
	m.extras[path] = pkg
	m.graph = nil // the call graph must pick up the new package
	info := newInfo()
	conf := types.Config{
		Importer: m.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// chainImporter resolves module-internal imports by type-checking them
// in place, and everything else through the toolchain's export data with
// a from-source fallback — stdlib only, no golang.org/x/tools.
type chainImporter struct {
	m      *Module
	gc     types.Importer
	source types.Importer
	cache  map[string]*types.Package
}

func newChainImporter(m *Module) *chainImporter {
	return &chainImporter{
		m:      m,
		gc:     importer.ForCompiler(m.Fset, "gc", nil),
		source: importer.ForCompiler(m.Fset, "source", nil),
		cache:  map[string]*types.Package{},
	}
}

func (ci *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == ci.m.Path || strings.HasPrefix(path, ci.m.Path+"/") {
		pkg, err := ci.m.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if pkg, ok := ci.m.extras[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: fixture import cycle through %q", path)
		}
		return pkg.Types, nil
	}
	if ci.m.fixtureRoot != "" {
		if rest, ok := strings.CutPrefix(path, "fixture/"); ok {
			pkg, err := ci.m.CheckDir(filepath.Join(ci.m.fixtureRoot, rest), path)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	if pkg, ok := ci.cache[path]; ok {
		return pkg, nil
	}
	pkg, err := ci.gc.Import(path)
	if err != nil {
		pkg, err = ci.source.Import(path)
	}
	if err != nil {
		return nil, err
	}
	ci.cache[path] = pkg
	return pkg, nil
}
