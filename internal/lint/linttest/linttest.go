// Package linttest runs scorislint analyzers over testdata fixture
// packages, in the style of golang.org/x/tools/go/analysis/analysistest:
// a fixture is a directory of .go files type-checked as one package
// (its imports — stdlib and repro-internal alike — resolve against the
// module's real export data), and expected findings are declared
// inline:
//
//	ix.Indexed = 0 // want `write to index\.Index`
//
// Every reported diagnostic must match a `// want` regexp on its line,
// and every `// want` must be matched by exactly one diagnostic, so
// each fixture proves both that the analyzer catches its seeded
// violations and that it stays silent on the idiomatic code around
// them.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// ModuleLoader returns one module-rooted loader per test process: the
// export-data listing is the expensive step and is identical for every
// fixture (and for whole-tree runs).
func ModuleLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		loader = lint.NewLoader(root)
		loaderErr = loader.Prime()
	})
	if loaderErr != nil {
		t.Fatalf("loading module export data: %v", loaderErr)
	}
	return loader
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod (tests run in their package directory).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// want is one expected-diagnostic declaration.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("// want (.*)$")

// parseWants extracts the `// want` expectations of a fixture package.
// Each expectation is a Go-quoted or backquoted regexp; several may
// follow one marker.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					var quoted string
					var err error
					switch rest[0] {
					case '`':
						end := strings.IndexByte(rest[1:], '`')
						if end < 0 {
							t.Fatalf("%s:%d: unterminated backquoted want pattern", pos.Filename, pos.Line)
						}
						quoted, rest = rest[1:1+end], strings.TrimSpace(rest[end+2:])
					case '"':
						quoted, err = strconv.Unquote(rest)
						if err != nil {
							// Quoted string followed by more text: find
							// the closing quote conservatively.
							end := strings.IndexByte(rest[1:], '"')
							if end < 0 {
								t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, rest, err)
							}
							quoted, err = strconv.Unquote(rest[:end+2])
							if err != nil {
								t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, rest, err)
							}
							rest = strings.TrimSpace(rest[end+2:])
						} else {
							rest = ""
						}
					default:
						t.Fatalf("%s:%d: want patterns must be quoted or backquoted, got %q", pos.Filename, pos.Line, rest)
					}
					re, err := regexp.Compile(quoted)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, quoted, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: quoted})
				}
			}
		}
	}
	return wants
}

// Run type-checks the fixture package at dir (relative to the calling
// test's directory) and asserts that the analyzer's findings exactly
// match the fixture's `// want` expectations.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	l := ModuleLoader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir("repro/lintfixture/"+filepath.Base(dir), abs)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	diags := lint.Run(l.Fset(), []*lint.Package{pkg}, []*lint.Analyzer{a})
	// A second run must report the same findings in the same order: an
	// analyzer whose output follows map order fails here.
	if again := lint.Run(l.Fset(), []*lint.Package{pkg}, []*lint.Analyzer{a}); !slices.Equal(diags, again) {
		t.Errorf("two runs over %s disagree:\n%v\n%v", dir, diags, again)
	}
	wants := parseWants(t, l.Fset(), pkg.Files)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic matched want %q at %s:%d", w.raw, w.file, w.line)
		}
	}
}
