// Package lint is scorislint: a suite of repo-specific static
// analyzers that machine-check the index/concurrency contracts this
// codebase documents in prose but, before this package, enforced only
// by review. Each analyzer encodes one invariant (see DESIGN.md §11
// for the analyzer ↔ contract map):
//
//   - indeximmut: a built index.Index is immutable
//     and may alias a read-only .orix mmap (DESIGN.md §5, §7)
//   - checkedflush: buffered-writer Flush and write-handle Close
//     errors are consumed on output paths (the silent-m8-truncation
//     regression class fixed in PR 5)
//   - goexit: every spawned goroutine has a visible lifecycle —
//     WaitGroup join, channel send/close/receive, ctx.Done — or an
//     explicit "// background:" justification
//   - untrustedix: bytes read from disk, mmap, or HTTP never become a
//     slice bound, make size, or ReadAt offset without passing a
//     //scorislint:validator function (DESIGN.md §7)
//   - detorder: values out of a map range pass a sort before reaching
//     an emitted stream, JSON response, or writer (byte-identity)
//   - guardedby: fields annotated "// guardedby: mu" are only touched
//     with the named mutex held, call sites included (DESIGN.md §8)
//   - hotalloc: //scorislint:hotpath functions do not allocate per
//     element in their loops, transitively (DESIGN.md §2)
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with "// want"
// expectations) but is built on the standard library only. One loader
// (load.go) takes the package graph from `go list -export -test -deps`
// and type-checks the module from source, test variants included, so
// the analyzers see every package the way `go test` builds it: each
// package with its in-package _test.go files, and each external _test
// package on top. The last four analyzers are interprocedural:
// dataflow.go builds a whole-module call graph (direct calls, method
// values, interface dispatch) over the production files, and one
// solver runs each analyzer's per-function summaries to convergence
// so facts propagate across function and package boundaries.
//
// There is no suppression comment: a false positive is fixed in its
// analyzer. The annotations analyzers read — "// background:",
// "// guardedby:" and //scorislint:{validator,source,hotpath} — stay:
// each is part of the contract its analyzer checks.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Package is one type-checked package under analysis.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// TestFiles marks which of Files are _test.go files.
	TestFiles map[*ast.File]bool
}

// Pass is a module-wide analysis pass: one analyzer over every loaded
// package at once, so cross-package invariants see the whole tree.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags  *[]Diagnostic
	module **Module // shared by every analyzer of one Run
}

// Files returns the files of pkg this analyzer should inspect: test
// files are included only for analyzers that opt in with AnalyzeTests,
// so a flow fact inferred from test-only code can never bless or blame
// production code.
func (p *Pass) Files(pkg *Package) []*ast.File {
	if p.Analyzer.AnalyzeTests {
		return pkg.Files
	}
	out := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		if !pkg.TestFiles[f] {
			out = append(out, f)
		}
	}
	return out
}

// Module returns the whole-module dataflow index (functions and call
// graph), built lazily on first use and shared by every analyzer of
// the Run.
func (p *Pass) Module() *Module {
	if *p.module == nil {
		*p.module = buildModule(p)
	}
	return *p.module
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)

	// AnalyzeTests opts the analyzer into _test.go files. Default
	// off: most invariants guard production paths, and test-only
	// evidence must not produce or suppress production findings.
	AnalyzeTests bool
}

// Analyzers returns the full scorislint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerIndexImmut,
		AnalyzerCheckedFlush,
		AnalyzerGoExit,
		AnalyzerUntrustedIx,
		AnalyzerDetOrder,
		AnalyzerGuardedBy,
		AnalyzerHotAlloc,
	}
}

// Run executes the analyzers over the loaded packages and returns
// their findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var module *Module
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, diags: &diags, module: &module})
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags
}
