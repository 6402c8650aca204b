package lint

import (
	"go/ast"
)

const (
	indexPkgPath   = "repro/internal/index"
	ixcachePkgPath = "repro/internal/ixcache"
)

// csrSections are the index.Index arrays: Codes and Pos may alias a
// read-only .orix mmap after LoadMapped (DESIGN.md §7), so growing,
// reordering, or element-writing them faults on the mapping — and on
// any of them (Offsets and Top are derived at load, on the heap)
// silently corrupts a cached index shared by concurrent readers.
var csrSections = map[string]bool{
	"Codes": true, "Offsets": true, "Pos": true, "Top": true,
}

// AnalyzerIndexImmut enforces the index reuse contract of DESIGN.md
// §5/§7: outside their defining packages, index.Index and
// ixcache.Prepared are immutable after construction — no field
// assignments, and no append/copy/sort/element writes on the CSR
// sections, which may be zero-copy views of a read-only mmap.
var AnalyzerIndexImmut = &Analyzer{
	Name: "indeximmut",
	Doc:  "forbid post-construction writes to index.Index / ixcache.Prepared and any mutation of the CSR sections (they may alias a read-only mmap)",
	Run:  runIndexImmut,
}

func runIndexImmut(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pass.Files(pkg) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						checkImmutWrite(pass, pkg, lhs, "assignment")
					}
				case *ast.IncDecStmt:
					checkImmutWrite(pass, pkg, st.X, "increment")
				case *ast.CallExpr:
					checkImmutCall(pass, pkg, st)
				}
				return true
			})
		}
	}
}

// sectionSelector reports whether e selects one of the CSR section
// fields of an index.Index, returning the field name.
func sectionSelector(pkg *Package, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !csrSections[sel.Sel.Name] {
		return "", false
	}
	t := typeOf(pkg.Info, sel.X)
	if t == nil || !isNamed(t, indexPkgPath, "Index") {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkImmutWrite flags lhs when it writes a field of index.Index or
// ixcache.Prepared, or an element of a CSR section.
func checkImmutWrite(pass *Pass, pkg *Package, lhs ast.Expr, what string) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		t := typeOf(pkg.Info, e.X)
		if t == nil {
			return
		}
		if pkg.Path != indexPkgPath && isNamed(t, indexPkgPath, "Index") {
			pass.Reportf(e.Pos(), "%s to index.Index.%s outside package index: a built Index is immutable and concurrent-reader-shared (DESIGN.md §5)", what, e.Sel.Name)
		}
		if pkg.Path != ixcachePkgPath && isNamed(t, ixcachePkgPath, "Prepared") {
			pass.Reportf(e.Pos(), "%s to ixcache.Prepared.%s outside package ixcache: a Prepared is immutable and valid only for the exact (bank, Options) it was built from (DESIGN.md §5)", what, e.Sel.Name)
		}
	case *ast.IndexExpr:
		if pkg.Path == indexPkgPath {
			return
		}
		if name, ok := sectionSelector(pkg, e.X); ok {
			pass.Reportf(e.Pos(), "element write to index.Index.%s: CSR sections may alias a read-only .orix mmap and must never be mutated (DESIGN.md §7)", name)
		}
	}
}

// checkImmutCall flags append/copy on a CSR section and sort/slices
// calls passed one.
func checkImmutCall(pass *Pass, pkg *Package, call *ast.CallExpr) {
	if pkg.Path == indexPkgPath {
		return
	}
	switch {
	case isBuiltin(pkg.Info, call, "append") && len(call.Args) > 0:
		if name, ok := sectionSelector(pkg, call.Args[0]); ok {
			pass.Reportf(call.Pos(), "append to index.Index.%s: CSR sections may alias a read-only .orix mmap and must never be grown in place (DESIGN.md §7)", name)
		}
	case isBuiltin(pkg.Info, call, "copy") && len(call.Args) > 0:
		if name, ok := sectionSelector(pkg, call.Args[0]); ok {
			pass.Reportf(call.Pos(), "copy into index.Index.%s: CSR sections may alias a read-only .orix mmap and must never be overwritten (DESIGN.md §7)", name)
		}
	default:
		fn := calleeFunc(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return
		}
		for _, arg := range call.Args {
			if name, ok := sectionSelector(pkg, arg); ok {
				pass.Reportf(call.Pos(), "%s.%s reorders index.Index.%s: CSR sections are position-sorted per code and may alias a read-only mmap (DESIGN.md §7)", fn.Pkg().Name(), fn.Name(), name)
			}
		}
	}
}
