// Package lint is scorislint: a suite of repo-specific static
// analyzers that machine-check the index/concurrency contracts this
// codebase documents in prose but, before this package, enforced only
// by review. Each analyzer encodes one invariant (see DESIGN.md §11
// for the analyzer ↔ contract map):
//
//   - indeximmut: a built index.Index / ixcache.Prepared is immutable
//     and may alias a read-only .orix mmap (DESIGN.md §5, §7)
//   - atomicmix: a location touched through sync/atomic functions is
//     never read or written non-atomically elsewhere
//   - ctxloop: unbounded loops in context-carrying functions consult
//     their context, so compare paths stay cancellable (DESIGN.md §10)
//   - checkedflush: buffered-writer Flush and write-handle Close
//     errors are consumed on output paths (the silent-m8-truncation
//     regression class fixed in PR 5)
//   - versionedmount: HTTP handlers are mounted under /v1 through
//     httpapi.Versioned (DESIGN.md §8)
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
// expectations) but is built on the standard library only: packages
// are loaded with `go list -export` and type-checked against gc
// export data (see load.go), so the linter needs no dependencies
// beyond the toolchain that builds the repo. The last four analyzers
// are interprocedural: dataflow.go builds a whole-module call graph
// (direct calls, method values, interface dispatch) and a fact store,
// and each analyzer iterates per-function summaries to a fixpoint so
// facts propagate across function and package boundaries.
//
// Findings are suppressed, one site at a time, with an inline
// directive that names the analyzer and must carry a justification:
//
//	//scorislint:ignore ctxloop bounded by the retry cap above
//
// on the flagged line or the line immediately before it, or for a
// whole file with
//
//	//scorislint:file-ignore <analyzer> <reason>
//
// among the file's comments. A directive without a justification does
// not suppress anything and is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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

	// TestFiles marks which of Files are _test.go files (loaded only
	// when the loader runs with Tests enabled).
	TestFiles map[*ast.File]bool
}

// Pass is a module-wide analysis pass: one analyzer over every loaded
// package at once, so cross-package invariants (atomicmix) see the
// whole tree.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags *[]Diagnostic

	// testFiles and module are shared by every analyzer of one Run.
	testFiles map[string]bool
	module    **Module
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

// Module returns the whole-module dataflow index (call graph, def-use
// chains, fact store), built lazily on first use and shared by every
// analyzer of the Run.
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

	// AnalyzeTests opts the analyzer into _test.go files when the
	// loader includes them. Default off: most invariants guard
	// production paths, and test-only evidence must not produce or
	// suppress production findings.
	AnalyzeTests bool

	// Contract is the prose contract the analyzer mechanizes and
	// Annotation the comment syntax it consumes, both printed by
	// `scorislint -explain`.
	Contract   string
	Annotation string
}

// Analyzers returns the full scorislint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerIndexImmut,
		AnalyzerAtomicMix,
		AnalyzerCtxLoop,
		AnalyzerCheckedFlush,
		AnalyzerVersionedMount,
		AnalyzerGoExit,
		AnalyzerUntrustedIx,
		AnalyzerDetOrder,
		AnalyzerGuardedBy,
		AnalyzerHotAlloc,
	}
}

// ignoreDirective is one parsed //scorislint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	file     string
	line     int // line the directive suppresses (its own line, or the next for full-line comments)
}

const (
	ignorePrefix     = "scorislint:ignore"
	fileIgnorePrefix = "scorislint:file-ignore"
)

// parseIgnores extracts every inline ignore directive from the loaded
// files; parseFileIgnores the file-scoped ones. The two prefixes are
// distinguished before inline parsing so a file-ignore is never
// misread as a malformed inline directive.
func parseIgnores(fset *token.FileSet, pkgs []*Package) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if strings.HasPrefix(text, fileIgnorePrefix) {
						continue
					}
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					// A nested // starts a comment-within-the-comment
					// (fixture "// want" markers); it is not a reason.
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = strings.TrimSpace(rest[:i])
					}
					name, reason, _ := strings.Cut(rest, " ")
					pos := fset.Position(c.Pos())
					out = append(out, ignoreDirective{
						analyzer: name,
						reason:   strings.TrimSpace(reason),
						pos:      pos,
						file:     pos.Filename,
						line:     pos.Line,
					})
				}
			}
		}
	}
	return out
}

// parseFileIgnores extracts every file-scoped suppression. Like the
// inline form, a file-ignore without both an analyzer name and a
// justification suppresses nothing and is itself reported.
func parseFileIgnores(fset *token.FileSet, pkgs []*Package) []ignoreDirective {
	var out []ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, fileIgnorePrefix) {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, fileIgnorePrefix))
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = strings.TrimSpace(rest[:i])
					}
					name, reason, _ := strings.Cut(rest, " ")
					pos := fset.Position(c.Pos())
					out = append(out, ignoreDirective{
						analyzer: name,
						reason:   strings.TrimSpace(reason),
						pos:      pos,
						file:     pos.Filename,
					})
				}
			}
		}
	}
	return out
}

// Run executes the analyzers over the loaded packages, applies ignore
// directives, and returns the surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	testFiles := map[string]bool{}
	for _, pkg := range pkgs {
		for f := range pkg.TestFiles {
			testFiles[fset.Position(f.Pos()).Filename] = true
		}
	}
	var module *Module
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a, Fset: fset, Pkgs: pkgs, diags: &diags,
			testFiles: testFiles, module: &module,
		}
		a.Run(pass)
	}

	// A directive on line L suppresses findings on L and L+1: a
	// trailing comment sits on the flagged line itself, a full-line
	// comment sits on the line before it.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	suppressed := map[key]bool{}
	for _, d := range parseIgnores(fset, pkgs) {
		if d.analyzer == "" || d.reason == "" {
			diags = append(diags, Diagnostic{
				Analyzer: "scorislint",
				Pos:      d.pos,
				Message:  "scorislint:ignore directive needs an analyzer name and a justification: //scorislint:ignore <analyzer> <reason>",
			})
			continue
		}
		suppressed[key{d.file, d.line, d.analyzer}] = true
		suppressed[key{d.file, d.line + 1, d.analyzer}] = true
	}

	// File-scoped suppression for generated and fixture files: one
	// justified //scorislint:file-ignore silences its analyzer for the
	// whole file.
	type fileKey struct {
		file     string
		analyzer string
	}
	fileSuppressed := map[fileKey]bool{}
	for _, d := range parseFileIgnores(fset, pkgs) {
		if d.analyzer == "" || d.reason == "" {
			diags = append(diags, Diagnostic{
				Analyzer: "scorislint",
				Pos:      d.pos,
				Message:  "scorislint:file-ignore directive needs an analyzer name and a justification: //scorislint:file-ignore <analyzer> <reason>",
			})
			continue
		}
		fileSuppressed[fileKey{d.file, d.analyzer}] = true
	}

	kept := diags[:0]
	for _, d := range diags {
		if suppressed[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		if fileSuppressed[fileKey{d.Pos.Filename, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept

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
