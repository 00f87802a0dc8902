package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// loadMod loads the enclosing module once for the whole test binary —
// fixtures and the selfcheck share the parse/type-check work.
var loadMod = sync.OnceValues(func() (*analysis.Module, error) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		return nil, err
	}
	fixtures, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		return nil, err
	}
	mod.SetFixtureRoot(fixtures)
	return mod, nil
})

// wantRe pulls the quoted expectation regexes out of a `// want "…"`
// comment; several quoted patterns on one line mean several findings.
var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

var quoteRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants maps fixture line numbers to expected-finding regexes.
func parseWants(t *testing.T, path string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
			wants[i+1] = append(wants[i+1], q[1])
		}
	}
	return wants
}

// runFixture checks one testdata package against its rule set: every
// `// want` expectation must be produced, and every produced finding
// must be expected — positive and negative cases in one pass.
func runFixture(t *testing.T, name string, rules analysis.Rules) {
	t.Helper()
	mod, err := loadMod()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := mod.CheckDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture must type-check cleanly: %v", terr)
	}
	findings := analysis.RunPackage(mod, pkg, rules)

	wants := map[string][]string{} // "file:line" -> pending regexes
	file := filepath.Join(dir, name+".go")
	for line, res := range parseWants(t, file) {
		wants[fmt.Sprintf("%s:%d", file, line)] = res
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got := f.Analyzer + ": " + f.Message
		matched := false
		pending := wants[key]
		for i, pat := range pending {
			if regexp.MustCompile(pat).MatchString(got) {
				wants[key] = append(pending[:i], pending[i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", key, got)
		}
	}
	for key, pending := range wants {
		for _, pat := range pending {
			t.Errorf("missing finding at %s matching %q", key, pat)
		}
	}
}

func TestDetClockFixture(t *testing.T) {
	runFixture(t, "detclock", analysis.Rules{Match: "fixture/detclock", Analyzers: []string{"detclock"}})
}

func TestDetRandFixture(t *testing.T) {
	runFixture(t, "detrand", analysis.Rules{Match: "fixture/detrand", Analyzers: []string{"detrand"}})
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, "maporder", analysis.Rules{Match: "fixture/maporder", Analyzers: []string{"maporder"}})
}

func TestEventPoolFixture(t *testing.T) {
	// The pooled-event arena pattern from internal/sim's hot path,
	// checked under both walls at once: map-drained heap rebuilds and
	// global-rand pool scrambling are flagged, the free-list and
	// collect-then-sort idioms are not.
	runFixture(t, "eventpool", analysis.Rules{
		Match:     "fixture/eventpool",
		Analyzers: []string{"maporder", "detrand"},
	})
}

func TestFloatEqFixture(t *testing.T) {
	runFixture(t, "floateq", analysis.Rules{Match: "fixture/floateq", Analyzers: []string{"floateq"}})
}

func TestLayeringFixture(t *testing.T) {
	runFixture(t, "layering", analysis.Rules{
		Match:         "fixture/layering",
		Analyzers:     []string{"layering"},
		ForbidImports: []string{"repro/internal/obs/live", "net/http", "repro/cmd/..."},
	})
}

func TestShardWallFixture(t *testing.T) {
	// The shard process wall, under the deterministic packages' own
	// forbid list: importing the crash-isolation layer or os/exec is
	// flagged, importing the deterministic merge path (suite) is not.
	rules, ok := analysis.DefaultConfig().RulesFor("repro/internal/suite")
	if !ok {
		t.Fatal("no rules for repro/internal/suite")
	}
	rules.Match = "fixture/shardwall"
	rules.Analyzers = []string{"layering"}
	runFixture(t, "shardwall", rules)
}

func TestClockTaintFixture(t *testing.T) {
	// detclock runs alongside clocktaint and must stay silent: this
	// package never reads the clock directly, so every finding is the
	// interprocedural tier's — the cross-package reach detclock misses.
	runFixture(t, "clocktaint", analysis.Rules{
		Match:     "fixture/clocktaint",
		Analyzers: []string{"detclock", "clocktaint"},
	})
}

func TestRandTaintFixture(t *testing.T) {
	runFixture(t, "randtaint", analysis.Rules{
		Match:     "fixture/randtaint",
		Analyzers: []string{"detrand", "randtaint"},
	})
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, "goroleak", analysis.Rules{Match: "fixture/goroleak", Analyzers: []string{"goroleak"}})
}

func TestLocksFixture(t *testing.T) {
	runFixture(t, "locks", analysis.Rules{Match: "fixture/locks", Analyzers: []string{"locks"}})
}

func TestNonBlockFixture(t *testing.T) {
	runFixture(t, "nonblock", analysis.Rules{Match: "fixture/nonblock", Analyzers: []string{"nonblock"}})
}

func TestUnusedExportFixture(t *testing.T) {
	runFixture(t, "unusedexport", analysis.Rules{Match: "fixture/unusedexport", Analyzers: []string{"unusedexport"}})
}

func TestAllowExtentFixture(t *testing.T) {
	// Statement-extent suppression: a directive above (or trailing on)
	// a multi-line statement covers its whole extent and nothing past it.
	runFixture(t, "allowext", analysis.Rules{Match: "fixture/allowext", Analyzers: []string{"detclock"}})
}

func TestAllowFixture(t *testing.T) {
	// Malformed/misspelled suppressions are findings even with no
	// analyzers configured: a typo must not silently disable a rule.
	runFixture(t, "allow", analysis.Rules{Match: "fixture/allow", Analyzers: []string{"detclock"}})
}

// TestBuildConstraintsFilterFiles pins the loader's build-tag handling:
// a platform-variant file pair (//go:build unix / //go:build !unix)
// declaring the same function must load as ONE file, not two duplicate
// declarations — exactly one side of the pair builds on any platform.
func TestBuildConstraintsFilterFiles(t *testing.T) {
	mod, err := loadMod()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, constraint string) {
		src := "//go:build " + constraint + "\n\npackage pair\n\nfunc which() string { return \"" + constraint + "\" }\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pair_unix.go", "unix")
	write("pair_other.go", "!unix")
	pkg, err := mod.CheckDir(dir, "fixture/pair")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files of the pair, want exactly 1", len(pkg.Files))
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("constraint-filtered pair must type-check cleanly: %v", terr)
	}
}

// TestInjectedViolation pins the failure mode end to end: a fresh file
// with a wall-clock read, checked under the deterministic rule set,
// must produce a file:line-addressed detclock finding.
func TestInjectedViolation(t *testing.T) {
	mod, err := loadMod()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := "package probe\n\nimport \"time\"\n\nfunc now() time.Time { return time.Now() }\n"
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := mod.CheckDir(dir, "fixture/probe")
	if err != nil {
		t.Fatal(err)
	}
	rules, ok := analysis.DefaultConfig().RulesFor("repro/internal/sim")
	if !ok {
		t.Fatal("no rules for repro/internal/sim")
	}
	rules.Match = "fixture/probe"
	findings := analysis.RunPackage(mod, pkg, rules)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "detclock" || f.Pos.Line != 5 || !strings.Contains(f.Pos.Filename, "probe.go") {
		t.Fatalf("finding not addressed to probe.go:5 detclock: %s", f)
	}
}

// TestInjectedTaintViolation pins the interprocedural failure mode end
// to end: a fresh package with NO direct wall-clock read, calling a
// helper in another package that reaches time.Now two calls deep, must
// produce exactly one clocktaint finding — and no detclock one.
func TestInjectedTaintViolation(t *testing.T) {
	mod, err := loadMod()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := "package probe\n\nimport \"fixture/clockhelper\"\n\nfunc lag() int64 { return clockhelper.Wrapped() }\n"
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := mod.CheckDir(dir, "fixture/taintprobe")
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("probe must type-check cleanly: %v", terr)
	}
	rules, ok := analysis.DefaultConfig().RulesFor("repro/internal/sim")
	if !ok {
		t.Fatal("no rules for repro/internal/sim")
	}
	rules.Match = "fixture/taintprobe"
	findings := analysis.RunPackage(mod, pkg, rules)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "clocktaint" || f.Pos.Line != 5 {
		t.Fatalf("finding not addressed to probe.go:5 clocktaint: %s", f)
	}
	if !strings.Contains(f.Message, "clockhelper.Wrapped -> clockhelper.Stamp -> time.Now") {
		t.Errorf("message lacks the witness chain: %s", f.Message)
	}
}

// TestInjectedLeakViolation does the same for goroleak under the
// concurrent-plane rule set.
func TestInjectedLeakViolation(t *testing.T) {
	mod, err := loadMod()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := "package probe\n\nfunc leak() {\n\tgo func() {\n\t\tfor {\n\t\t\twork()\n\t\t}\n\t}()\n}\n\nfunc work() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := mod.CheckDir(dir, "fixture/leakprobe")
	if err != nil {
		t.Fatal(err)
	}
	rules, ok := analysis.DefaultConfig().RulesFor("repro/internal/campaign")
	if !ok {
		t.Fatal("no rules for repro/internal/campaign")
	}
	rules.Match = "fixture/leakprobe"
	findings := analysis.RunPackage(mod, pkg, rules)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if f := findings[0]; f.Analyzer != "goroleak" || f.Pos.Line != 4 {
		t.Fatalf("finding not addressed to probe.go:4 goroleak: %s", f)
	}
}
