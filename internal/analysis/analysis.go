// Package analysis is greenvet's engine: a stdlib-only static-analysis
// suite that machine-checks the determinism and layering conventions
// every reproducibility guarantee in this module rests on. Each analyzer
// enforces one invariant (wall-clock isolation, seeded randomness,
// map-order hygiene, tolerance-based float comparison, import layering);
// a table-driven Config maps packages to the rule sets they must obey.
//
// The suite runs in two places with identical results: the cmd/greenvet
// CLI, and internal/analysis's own selfcheck test, so drift fails plain
// `go test ./...` — there is no CI-only enforcement gap.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation, addressed to a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical `file:line: analyzer:
// message` form that editors and CI logs can jump from.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the registry key; allow comments and Config rule sets refer
	// to analyzers by this name.
	Name string
	// Doc is a one-line description shown by `greenvet -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands one analyzer everything it may look at for one package.
type Pass struct {
	// Path is the package's import path.
	Path string
	// Fset maps AST positions back to file:line.
	Fset *token.FileSet
	// Files are the package's parsed non-test files, in filename order.
	Files []*ast.File
	// Info carries type information. Identifiers that failed to resolve
	// have no entry; analyzers fall back to syntax where they can.
	Info *types.Info
	// Mod is the enclosing module; the interprocedural analyzers reach
	// the call graph and cross-package summaries through it.
	Mod *Module
	// Rules is the rule set Config matched for this package.
	Rules Rules

	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos. Findings suppressed by a
// `//greenvet:allow` comment are filtered after the pass runs.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Registry lists every analyzer in deterministic run order: the five
// syntax-level checks from the original suite, then the interprocedural
// tier (clocktaint/randtaint over the call graph, goroleak over the
// blocks-forever summaries), the concurrency analyzers and the
// module-wide dead-export check.
func Registry() []*Analyzer {
	return []*Analyzer{DetClock, DetRand, MapOrder, FloatEq, Layering,
		ClockTaint, RandTaint, GoroLeak, Locks, NonBlock, UnusedExport}
}

// ByName returns the registered analyzer with that name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Registry() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies cfg to every loaded package whose import path is in paths
// (all packages when paths is nil) and returns the surviving findings
// sorted by file, line, column and analyzer. Malformed or misspelled
// `//greenvet:allow` comments are themselves reported, so a typo cannot
// silently disable a rule.
func Run(mod *Module, cfg Config, paths []string) ([]Finding, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	var findings []Finding
	for _, path := range mod.PackagePaths() {
		if paths != nil && !want[path] {
			continue
		}
		rules, ok := cfg.RulesFor(path)
		if !ok {
			continue
		}
		findings = append(findings, RunPackage(mod, mod.Package(path), rules)...)
	}
	sortFindings(findings)
	return findings, nil
}

// RunPackage applies one rule set to one loaded package — the unit the
// fixture tests drive directly — returning allow-filtered findings in
// position order. Rules.Analyzers must already be validated.
func RunPackage(mod *Module, pkg *Package, rules Rules) []Finding {
	var findings []Finding
	allows := collectAllows(mod.Fset, pkg.Files, &findings)
	var raw []Finding
	for _, name := range rules.Analyzers {
		a := ByName(name)
		if a == nil {
			continue // Config.Validate rejects unknown names up front
		}
		pass := &Pass{
			Path:     pkg.Path,
			Fset:     mod.Fset,
			Files:    pkg.Files,
			Info:     pkg.Info,
			Mod:      mod,
			Rules:    rules,
			analyzer: a.Name,
			findings: &raw,
		}
		a.Run(pass)
	}
	for _, f := range raw {
		if !allows.suppresses(f) {
			findings = append(findings, f)
		}
	}
	sortFindings(findings)
	return findings
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// usesPackageFunc reports whether sel is a selector on the package
// imported as pkgPath (e.g. `time.Now` for "time"), returning the
// selected name. It resolves through type info when available and falls
// back to the file's import table otherwise.
func usesPackageFunc(p *Pass, file *ast.File, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if p.Info != nil {
		if obj, found := p.Info.Uses[id]; found {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg {
				return "", "", false
			}
			return pn.Imported().Path(), sel.Sel.Name, true
		}
	}
	// Syntactic fallback: match the identifier against import specs.
	if file == nil {
		return "", "", false
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		} else {
			local = path[strings.LastIndex(path, "/")+1:]
		}
		if local == id.Name {
			return path, sel.Sel.Name, true
		}
	}
	return "", "", false
}
