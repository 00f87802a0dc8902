package analysis

import (
	"fmt"
	"strings"
)

// Rules is the rule set one package must obey.
type Rules struct {
	// Match selects packages by import path: either an exact path or a
	// `prefix/...` pattern covering the prefix and everything below it.
	Match string
	// Analyzers names the checks to run, in run order.
	Analyzers []string
	// ForbidImports lists import paths (exact or `prefix/...`) the
	// layering analyzer rejects for matched packages.
	ForbidImports []string
}

// Config maps packages to rule sets. The first entry whose Match covers
// a package's import path wins, so specific entries go before wildcards.
type Config struct {
	Packages []Rules
}

// matchPath reports whether pattern covers path.
func matchPath(pattern, path string) bool {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == base || strings.HasPrefix(path, base+"/")
	}
	return pattern == path
}

// RulesFor returns the rule set for the package with that import path.
func (c Config) RulesFor(path string) (Rules, bool) {
	for _, r := range c.Packages {
		if matchPath(r.Match, path) {
			return r, true
		}
	}
	return Rules{}, false
}

// Validate rejects configs that reference unknown analyzers, repeat a
// match pattern, or attach import bans to a rule set that never runs the
// layering analyzer (a silent no-op otherwise).
func (c Config) Validate() error {
	seen := map[string]bool{}
	for _, r := range c.Packages {
		if r.Match == "" {
			return fmt.Errorf("analysis: config entry with empty Match")
		}
		if seen[r.Match] {
			return fmt.Errorf("analysis: duplicate config entry for %q", r.Match)
		}
		seen[r.Match] = true
		hasLayering := false
		for _, name := range r.Analyzers {
			if ByName(name) == nil {
				return fmt.Errorf("analysis: %q: unknown analyzer %q (known: %s)",
					r.Match, name, strings.Join(analyzerNames(), ", "))
			}
			if name == Layering.Name {
				hasLayering = true
			}
		}
		if len(r.ForbidImports) > 0 && !hasLayering {
			return fmt.Errorf("analysis: %q forbids imports but does not run the layering analyzer", r.Match)
		}
	}
	return nil
}

func analyzerNames() []string {
	var names []string
	for _, a := range Registry() {
		names = append(names, a.Name)
	}
	return names
}

// Deterministic packages: every byte of their output must be a pure
// function of configuration and seed. They get the full rule set and may
// not import the wall-clock live plane, net/http, or any cmd.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/suite",
	"repro/internal/bench",
	"repro/internal/core",
	"repro/internal/mpirt",
	"repro/internal/power",
	"repro/internal/series",
}

// DefaultConfig is the module's own rule table, the one cmd/greenvet and
// the selfcheck test enforce.
//
//   - Deterministic packages (sim, suite, bench, core, mpirt, power,
//     series), everything under internal/ not classified otherwise, and
//     the root package obey the full deterministic rule set — the
//     syntax-level walls plus the interprocedural clocktaint/randtaint
//     tier, so a wall-clock read can not hide behind a helper in
//     another package — and must not import internal/obs/live or
//     net/http.
//   - internal/obs/live, internal/shard, internal/campaign,
//     internal/obs/ops, cmd/* and examples/* legitimately touch the
//     wall clock, so detclock/clocktaint are off there (as they are in
//     _test.go files, which the loader never parses). The four
//     concurrent-surface packages instead run goroleak: every goroutine
//     they launch must have a reachable shutdown path.
//   - internal/obs/live additionally runs nonblock: channel sends in
//     the publish paths must be select+default, so the "non-blocking
//     bus" claim is machine-checked rather than test-sampled.
//   - locks (mutex by value, Lock without Unlock on a return path, lock
//     held across a blocking send) runs module-wide.
//   - internal/shard is the crash-isolation layer: it may spawn worker
//     processes (os/exec) and watch the wall clock, but deterministic
//     packages must not import it — nor os/exec — so everything that
//     decides bytes stays process-free.
//   - internal/campaign is the multi-tenant job layer (the daemon):
//     wall-clock by nature, forbidden to the deterministic core just
//     like the live plane and the shard supervisor.
//   - internal/obs/ops is the operational telemetry plane (request
//     metrics, queue stats, runtime samples, supervisor timelines):
//     wall-clock by definition and likewise unimportable from any
//     deterministic package.
//   - internal/stats and internal/units host the approved tolerance
//     helpers, so floateq is off inside them.
//   - No internal package may import a cmd.
//   - Every internal package runs unusedexport: an exported function
//     that no non-test file of the module references is dead code. The
//     root package is the public API and the commands and examples are
//     mains, so they do not run it.
func DefaultConfig() Config {
	det := []string{"detclock", "clocktaint", "detrand", "randtaint", "maporder", "floateq", "layering", "locks"}
	concurrent := []string{"detrand", "randtaint", "maporder", "floateq", "layering", "locks", "goroleak", "unusedexport"}
	livePlane := append(append([]string{}, concurrent...), "nonblock")
	noFloat := []string{"detclock", "clocktaint", "detrand", "randtaint", "maporder", "layering", "locks", "unusedexport"}
	detInternal := append(append([]string{}, det...), "unusedexport")
	wallCmd := []string{"detrand", "randtaint", "maporder", "floateq", "layering", "locks"}
	detForbid := []string{"repro/internal/obs/live", "repro/internal/obs/ops", "repro/internal/shard", "repro/internal/campaign", "os/exec", "net/http", "repro/cmd/..."}
	internalForbid := []string{"repro/cmd/..."}

	pkgs := []Rules{
		{Match: "repro/internal/obs/live", Analyzers: livePlane, ForbidImports: internalForbid},
		{Match: "repro/internal/obs/ops", Analyzers: concurrent, ForbidImports: internalForbid},
		{Match: "repro/internal/shard", Analyzers: concurrent, ForbidImports: internalForbid},
		{Match: "repro/internal/campaign", Analyzers: concurrent, ForbidImports: internalForbid},
		{Match: "repro/internal/stats", Analyzers: noFloat, ForbidImports: internalForbid},
		{Match: "repro/internal/units", Analyzers: noFloat, ForbidImports: internalForbid},
	}
	for _, p := range deterministicPkgs {
		pkgs = append(pkgs, Rules{Match: p, Analyzers: detInternal, ForbidImports: detForbid})
	}
	pkgs = append(pkgs,
		Rules{Match: "repro/internal/...", Analyzers: detInternal, ForbidImports: internalForbid},
		Rules{Match: "repro/cmd/...", Analyzers: wallCmd},
		Rules{Match: "repro/examples/...", Analyzers: wallCmd},
		Rules{Match: "repro", Analyzers: det, ForbidImports: detForbid},
	)
	return Config{Packages: pkgs}
}
