package lint

// White-box test of the call-graph layer: a two-package fixture with
// direct calls, a method value, and interface dispatch, checked
// against a golden edge list. The golden file pins both the edge set
// and the FuncKey spelling (FullName strings), which every
// interprocedural analyzer keys its summaries on.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestCallGraphEdges(t *testing.T) {
	l := NewLoader("../..")
	if err := l.Prime(); err != nil {
		t.Fatalf("priming loader: %v", err)
	}
	// pkga checks first, so pkgb's import of it resolves to that check.
	var pkgs []*Package
	for _, name := range []string{"pkga", "pkgb"} {
		abs, err := filepath.Abs(filepath.Join("testdata/src/callgraph", name))
		if err != nil {
			t.Fatal(err)
		}
		path := "repro/lintfixture/callgraph/" + name
		pkg, err := l.CheckDir(path, abs)
		if err != nil {
			t.Fatalf("type-checking %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}

	mod := buildModule(&Pass{Fset: l.Fset(), Pkgs: pkgs})

	var got []string
	for _, e := range mod.Edges {
		got = append(got, fmt.Sprintf("%s -> %s [%s]", e.Caller, e.Callee, e.Kind))
	}
	sort.Strings(got)

	goldenPath := "testdata/callgraph.golden"
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden edge list: %v", err)
	}
	gotText := strings.Join(got, "\n") + "\n"
	if gotText != string(want) {
		t.Errorf("call graph edges diverge from %s:\ngot:\n%swant:\n%s", goldenPath, gotText, want)
	}

	// The graph must be navigable from both ends: every edge appears
	// under its caller's Callees and its callee's Callers.
	for _, e := range mod.Edges {
		if !containsEdge(mod.Callees(e.Caller), e) {
			t.Errorf("edge %v missing from Callees(%s)", e, e.Caller)
		}
		if !containsEdge(mod.Callers(e.Callee), e) {
			t.Errorf("edge %v missing from Callers(%s)", e, e.Callee)
		}
	}
}

func containsEdge(edges []Edge, e Edge) bool {
	for _, c := range edges {
		if c == e {
			return true
		}
	}
	return false
}
