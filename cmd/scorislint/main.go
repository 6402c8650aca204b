// Command scorislint runs the repo-invariant analyzer suite of
// internal/lint over the tree. It is the machine check behind the
// contracts DESIGN.md states in prose (see DESIGN.md §11 for the
// analyzer ↔ contract map).
//
// Usage:
//
//	go run ./cmd/scorislint ./...          # human-readable file:line findings
//	go run ./cmd/scorislint -github ./...  # additionally emit GitHub Actions error annotations
//	go run ./cmd/scorislint -list          # list analyzers and the invariants they encode
//
// The packages are loaded the way `go test` builds them: each package
// with its in-package _test.go files, and each external _test package
// on top. Most analyzers skip the test files; checkedflush and goexit
// check them too.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Findings
// print as file:line:col so terminals and CI logs link straight to the
// violation; -github adds ::error workflow commands so the Actions UI
// annotates the diff.
//
// There is no suppression comment: a false positive is fixed in its
// analyzer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		github = flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
		list   = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scorislint [-github] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scorislint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Run(loader.Fset(), pkgs, analyzers)

	cwd, _ := os.Getwd()
	rel := func(path string) string {
		if cwd == "" {
			return path
		}
		if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return path
	}

	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if *github {
		for _, d := range diags {
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Analyzer + ": " + d.Message)
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, msg)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scorislint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
