package lint_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer is proven twice: a clean fixture it must stay silent
// on, and a seeded-violation fixture where every finding must match a
// `// want` expectation (and every expectation must be found).

func TestIndexImmut(t *testing.T) {
	linttest.Run(t, lint.AnalyzerIndexImmut, "testdata/src/indeximmut/clean")
	linttest.Run(t, lint.AnalyzerIndexImmut, "testdata/src/indeximmut/bad")
}

func TestCheckedFlush(t *testing.T) {
	linttest.Run(t, lint.AnalyzerCheckedFlush, "testdata/src/checkedflush/clean")
	linttest.Run(t, lint.AnalyzerCheckedFlush, "testdata/src/checkedflush/bad")
}

func TestGoExit(t *testing.T) {
	linttest.Run(t, lint.AnalyzerGoExit, "testdata/src/goexit/clean")
	linttest.Run(t, lint.AnalyzerGoExit, "testdata/src/goexit/bad")
}

var (
	treeOnce sync.Once
	treePkgs []*lint.Package
	treeErr  error
)

// loadTree loads the whole module once per test process.
func loadTree(t *testing.T) (*lint.Loader, []*lint.Package) {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-tree load skipped in -short mode")
	}
	l := linttest.ModuleLoader(t)
	treeOnce.Do(func() { treePkgs, treeErr = l.Load("./...") })
	if treeErr != nil {
		t.Fatalf("loading module: %v", treeErr)
	}
	return l, treePkgs
}

// TestTreeIsClean runs the full suite over the whole module, so plain
// `go test ./...` enforces every machine-checked invariant even where
// CI's dedicated lint job is not in the loop. A violation anywhere in
// the tree fails this test with the same file:line message scorislint
// would print.
func TestTreeIsClean(t *testing.T) {
	l, pkgs := loadTree(t)
	if len(pkgs) < 30 {
		t.Fatalf("suspiciously few packages loaded (%d): loader is not seeing the module", len(pkgs))
	}
	for _, d := range lint.Run(l.Fset(), pkgs, lint.Analyzers()) {
		t.Errorf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// TestLoaderAnalyzedSet pins what the analyzers see over ./...,
// against a plain listing without test variants: each package once,
// with its in-package _test.go files when it has any, plus one
// package per external test package, and no intermediate "q [p.test]"
// re-check or generated ".test" main. Exactly the _test.go files are
// marked as test files.
func TestLoaderAnalyzedSet(t *testing.T) {
	l, pkgs := loadTree(t)
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = l.Dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type files struct{ prod, test []string }
	want := map[string]files{}
	abs := func(dir string, names []string) []string {
		var out []string
		for _, n := range names {
			out = append(out, filepath.Join(dir, n))
		}
		return out
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Dir                    string
			GoFiles, TestGoFiles, XTestGoFiles []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if len(p.GoFiles) > 0 {
			want[p.ImportPath] = files{abs(p.Dir, p.GoFiles), abs(p.Dir, p.TestGoFiles)}
		}
		if len(p.XTestGoFiles) > 0 {
			want[p.ImportPath+"_test"] = files{nil, abs(p.Dir, p.XTestGoFiles)}
		}
	}

	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg.Path] {
			t.Errorf("package %s analyzed twice", pkg.Path)
			continue
		}
		seen[pkg.Path] = true
		w, ok := want[pkg.Path]
		if !ok {
			t.Errorf("package %s analyzed, but go list has no such package", pkg.Path)
			continue
		}
		var got files
		for _, f := range pkg.Files {
			name := l.Fset().Position(f.Pos()).Filename
			if pkg.TestFiles[f] {
				got.test = append(got.test, name)
			} else {
				got.prod = append(got.prod, name)
			}
		}
		for _, s := range [][]string{got.prod, got.test, w.prod, w.test} {
			slices.Sort(s)
		}
		if !slices.Equal(got.prod, w.prod) || !slices.Equal(got.test, w.test) {
			t.Errorf("package %s: analyzed production files %v and test files %v, want %v and %v",
				pkg.Path, got.prod, got.test, w.prod, w.test)
		}
	}
	for path := range want {
		if !seen[path] {
			t.Errorf("package %s not analyzed", path)
		}
	}
}

func TestUntrustedIx(t *testing.T) {
	linttest.Run(t, lint.AnalyzerUntrustedIx, "testdata/src/untrustedix/clean")
	linttest.Run(t, lint.AnalyzerUntrustedIx, "testdata/src/untrustedix/bad")
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, lint.AnalyzerDetOrder, "testdata/src/detorder/clean")
	linttest.Run(t, lint.AnalyzerDetOrder, "testdata/src/detorder/bad")
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, lint.AnalyzerGuardedBy, "testdata/src/guardedby/clean")
	linttest.Run(t, lint.AnalyzerGuardedBy, "testdata/src/guardedby/bad")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.AnalyzerHotAlloc, "testdata/src/hotalloc/clean")
	linttest.Run(t, lint.AnalyzerHotAlloc, "testdata/src/hotalloc/bad")
}
