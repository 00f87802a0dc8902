package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkLoadModule times the front half of a greenvet run: parsing
// and type-checking the whole module with the stdlib loader. This is
// the cost every CLI invocation pays once.
func BenchmarkLoadModule(b *testing.B) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.LoadModule(root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzerSuite times the back half: the full default rule
// table — all eleven analyzers, including the interprocedural taint tier —
// over an already-loaded module. The first iteration builds the call
// graph; later ones reuse it, matching how one CLI run amortizes the
// graph across packages.
func BenchmarkAnalyzerSuite(b *testing.B) {
	mod, err := loadMod()
	if err != nil {
		b.Fatal(err)
	}
	cfg := analysis.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, err := analysis.Run(mod, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("selfcheck not clean: %v", findings)
		}
	}
}

// BenchmarkCallGraph times the interprocedural substrate alone: one
// whole-module call-graph build with summaries and taint propagation.
func BenchmarkCallGraph(b *testing.B) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.InvalidateGraph()
		if g := mod.Graph(); g == nil {
			b.Fatal("nil graph")
		}
	}
}
