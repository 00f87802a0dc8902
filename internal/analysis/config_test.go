package analysis

import (
	"strings"
	"testing"
)

func TestValidateUnknownAnalyzer(t *testing.T) {
	cfg := Config{Packages: []Rules{
		{Match: "repro/internal/sim", Analyzers: []string{"detclock", "nosuch"}},
	}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("config with unknown analyzer validated")
	}
	if !strings.Contains(err.Error(), `unknown analyzer "nosuch"`) {
		t.Errorf("error does not name the bad analyzer: %v", err)
	}
	if !strings.Contains(err.Error(), "detclock") {
		t.Errorf("error does not list the known analyzers: %v", err)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			"empty match",
			Config{Packages: []Rules{{Match: "", Analyzers: []string{"detclock"}}}},
			"empty Match",
		},
		{
			"duplicate match",
			Config{Packages: []Rules{
				{Match: "repro/internal/sim", Analyzers: []string{"detclock"}},
				{Match: "repro/internal/sim", Analyzers: []string{"detrand"}},
			}},
			"duplicate",
		},
		{
			"forbid without layering",
			Config{Packages: []Rules{
				{Match: "repro/internal/sim", Analyzers: []string{"detclock"}, ForbidImports: []string{"net/http"}},
			}},
			"does not run the layering analyzer",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatalf("config validated; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{"repro/internal/sim", "repro/internal/sim", true},
		{"repro/internal/sim", "repro/internal/simx", false},
		{"repro/internal/...", "repro/internal/sim", true},
		{"repro/internal/...", "repro/internal", true},
		{"repro/internal/...", "repro/internals", false},
		{"repro/cmd/...", "repro/cmd/greenvet", true},
		{"repro", "repro/internal/sim", false},
	}
	for _, tc := range cases {
		if got := matchPath(tc.pattern, tc.path); got != tc.want {
			t.Errorf("matchPath(%q, %q) = %v, want %v", tc.pattern, tc.path, got, tc.want)
		}
	}
}

// TestRulesForPrecedence pins the layering posture of the default table:
// specific entries beat the internal/... wildcard, the live plane is
// exempt from detclock, and the deterministic core may not import it.
func TestRulesForPrecedence(t *testing.T) {
	cfg := DefaultConfig()

	sim, ok := cfg.RulesFor("repro/internal/sim")
	if !ok {
		t.Fatal("no rules for repro/internal/sim")
	}
	if !hasString(sim.Analyzers, "detclock") || !hasString(sim.ForbidImports, "repro/internal/obs/live") {
		t.Errorf("sim rules lack the deterministic posture: %+v", sim)
	}
	if !hasString(sim.Analyzers, "clocktaint") || !hasString(sim.Analyzers, "randtaint") || !hasString(sim.Analyzers, "locks") {
		t.Errorf("sim rules lack the interprocedural tier: %+v", sim)
	}

	live, ok := cfg.RulesFor("repro/internal/obs/live")
	if !ok {
		t.Fatal("no rules for repro/internal/obs/live")
	}
	if hasString(live.Analyzers, "detclock") || hasString(live.Analyzers, "clocktaint") {
		t.Errorf("obs/live must be exempt from the wall-clock analyzers: %+v", live)
	}
	if !hasString(live.Analyzers, "goroleak") || !hasString(live.Analyzers, "nonblock") {
		t.Errorf("obs/live must run the concurrency analyzers: %+v", live)
	}

	cmd, ok := cfg.RulesFor("repro/cmd/greenvet")
	if !ok {
		t.Fatal("no rules for repro/cmd/greenvet")
	}
	if hasString(cmd.Analyzers, "detclock") {
		t.Errorf("cmd/* must be exempt from detclock: %+v", cmd)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Registry() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc or Run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName of an unknown name must return nil")
	}
	if len(seen) != 11 {
		t.Errorf("registry has %d analyzers, want 11", len(seen))
	}
}

func hasString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
