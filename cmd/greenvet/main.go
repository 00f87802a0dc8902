// Command greenvet runs the module's determinism & layering analyzer
// suite (internal/analysis) over the source tree — the machine check
// behind every byte-identical-artifact guarantee this reproduction
// makes.
//
// Usage:
//
//	greenvet ./...                      # analyze the whole module
//	greenvet ./internal/sim ./cmd/...   # analyze selected packages
//	greenvet -list                      # print analyzers and the rule table
//	greenvet -json ./...                # NDJSON findings, one object per line
//	greenvet -github ./...              # GitHub Actions ::error annotations
//
// Findings print as `file:line: analyzer: message` and make the exit
// status nonzero, so `make lint` and CI fail on drift. -json emits one
// NDJSON object per finding for machine consumers (CI artifacts), and
// -github emits workflow ::error annotations so findings land on the PR
// diff. Justified exceptions carry a `//greenvet:allow <analyzer> --
// <reason>` comment on or directly above the flagged line (or above the
// statement containing it). The same suite runs inside `go test
// ./internal/analysis`, so there is no CI-only enforcement gap.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzer registry and per-package rule config, then exit")
	asJSON := flag.Bool("json", false, "emit findings as NDJSON (one object per line) on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: greenvet [-list] [-json] [-github] [packages]\n\n"+
			"Packages are ./-relative patterns (default ./...). Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := analysis.DefaultConfig()
	if *list {
		printList(os.Stdout, cfg)
		return
	}

	findings, root, err := run(cfg, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenvet:", err)
		os.Exit(2)
	}
	emit(os.Stdout, findings, root, *asJSON, *github)
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "greenvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// emit prints findings in the selected format. JSON and annotation
// modes address files relative to the module root, so the output is
// stable across checkouts and usable from CI.
func emit(w io.Writer, findings []analysis.Finding, root string, asJSON, github bool) {
	for _, f := range findings {
		switch {
		case asJSON:
			enc, _ := json.Marshal(jsonFinding{
				File:     relPath(root, f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
			fmt.Fprintln(w, string(enc))
		case github:
			fmt.Fprintln(w, githubAnnotation(root, f))
		default:
			fmt.Fprintln(w, f)
		}
	}
}

// jsonFinding is the NDJSON shape: one finding per line, fields stable
// for downstream tooling.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// githubAnnotation renders one finding as a GitHub Actions workflow
// command, so CI surfaces it inline on the PR diff.
func githubAnnotation(root string, f analysis.Finding) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		escapeProperty(relPath(root, f.Pos.Filename)), f.Pos.Line, f.Pos.Column,
		escapeProperty("greenvet "+f.Analyzer), escapeData(f.Message))
}

// escapeData escapes an annotation message per the workflow-command
// rules: %, CR and LF.
func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeProperty additionally escapes the property separators.
func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// relPath makes file paths module-root-relative where possible.
func relPath(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// moduleRoot locates the enclosing module from the working directory.
func moduleRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	return analysis.FindModuleRoot(cwd)
}

// run loads the enclosing module and analyzes the packages matched by
// the ./-relative argument patterns (everything when none are given).
func run(cfg analysis.Config, args []string) ([]analysis.Finding, string, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, "", err
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		return nil, "", err
	}
	paths, err := resolvePatterns(mod, args)
	if err != nil {
		return nil, "", err
	}
	findings, err := analysis.Run(mod, cfg, paths)
	return findings, root, err
}

// resolvePatterns maps go-tool-style package patterns (./..., ./cmd/...,
// ./internal/sim) to loaded import paths. nil means "all packages".
func resolvePatterns(mod *analysis.Module, args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, nil
	}
	var paths []string
	for _, arg := range args {
		pat := filepath.ToSlash(arg)
		pat = strings.TrimPrefix(pat, "./")
		switch {
		case pat == "..." || pat == ".":
			return nil, nil
		default:
			if !strings.HasPrefix(pat, mod.Path) {
				pat = mod.Path + "/" + pat
			}
			n := 0
			for _, p := range mod.PackagePaths() {
				if matched(pat, p) {
					paths = append(paths, p)
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("pattern %q matches no packages", arg)
			}
		}
	}
	return paths, nil
}

func matched(pattern, path string) bool {
	if base, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == base || strings.HasPrefix(path, base+"/")
	}
	return pattern == path
}

// printList mirrors `greenbench -list`: first the analyzer registry,
// then the package → rule-set table, so the tool is self-describing.
func printList(w io.Writer, cfg analysis.Config) {
	fmt.Fprintln(w, "Analyzers:")
	for _, a := range analysis.Registry() {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w, "\nPackage rules (first match wins):")
	for _, r := range cfg.Packages {
		fmt.Fprintf(w, "  %-28s %s\n", r.Match, strings.Join(r.Analyzers, ","))
		if len(r.ForbidImports) > 0 {
			fmt.Fprintf(w, "  %-28s   forbid: %s\n", "", strings.Join(r.ForbidImports, ", "))
		}
	}
	fmt.Fprintf(w, "\nSuppression: `%s <analyzer> -- <reason>` on or above the flagged line.\n",
		analysis.AllowPrefix)
}
