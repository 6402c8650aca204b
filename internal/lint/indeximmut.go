package lint

import (
	"go/ast"
	"go/types"
)

const indexPkgPath = "repro/internal/index"

// csrSections are the arrays of an index.Part, one block of an index:
// Codes, Offsets and Pos may alias a read-only .orix mmap after a mapped
// load (DESIGN.md §7), so growing, reordering, or element-writing them
// faults on the mapping — and on any of them (Top, Bits and Rank are
// derived at load, on the heap) silently corrupts a cached index shared
// by concurrent readers.
var csrSections = map[string]bool{
	"Codes": true, "Offsets": true, "Pos": true, "Top": true, "Bits": true, "Rank": true,
}

// indexTypes are the types of package index whose values are immutable
// outside it: an Index and each of its Parts.
var indexTypes = []string{"Index", "Part"}

// indexType returns the name of the immutable index type t is (or
// points to), if it is one.
func indexType(t types.Type) (string, bool) {
	for _, name := range indexTypes {
		if t != nil && isNamed(t, indexPkgPath, name) {
			return name, true
		}
	}
	return "", false
}

// AnalyzerIndexImmut enforces the index reuse contract of DESIGN.md
// §5/§7: outside package index, an index.Index and its index.Parts are
// immutable after construction — no field assignments (Bank included:
// an index is valid only for the bank it was built from), and no
// append/copy/sort/element writes on the CSR sections, which may be
// zero-copy views of a read-only mmap.
var AnalyzerIndexImmut = &Analyzer{
	Name: "indeximmut",
	Doc:  "forbid post-construction writes to index.Index and index.Part and any mutation of the CSR sections (they may alias a read-only mmap)",
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
// fields of an index.Part, returning "Part.<field>" for the messages.
func sectionSelector(pkg *Package, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !csrSections[sel.Sel.Name] {
		return "", false
	}
	name, ok := indexType(typeOf(pkg.Info, sel.X))
	if !ok {
		return "", false
	}
	return name + "." + sel.Sel.Name, true
}

// checkImmutWrite flags lhs when it writes a field of index.Index or
// index.Part or an element of a CSR section.
func checkImmutWrite(pass *Pass, pkg *Package, lhs ast.Expr, what string) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if pkg.Path == indexPkgPath {
			return
		}
		if name, ok := indexType(typeOf(pkg.Info, e.X)); ok {
			pass.Reportf(e.Pos(), "%s to index.%s.%s outside package index: a built Index is immutable, concurrent-reader-shared and valid only for the exact (bank, index.Key) it was built from (DESIGN.md §5)", what, name, e.Sel.Name)
		}
	case *ast.IndexExpr:
		if pkg.Path == indexPkgPath {
			return
		}
		if name, ok := sectionSelector(pkg, e.X); ok {
			pass.Reportf(e.Pos(), "element write to index.%s: CSR sections may alias a read-only .orix mmap and must never be mutated (DESIGN.md §7)", name)
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
			pass.Reportf(call.Pos(), "append to index.%s: CSR sections may alias a read-only .orix mmap and must never be grown in place (DESIGN.md §7)", name)
		}
	case isBuiltin(pkg.Info, call, "copy") && len(call.Args) > 0:
		if name, ok := sectionSelector(pkg, call.Args[0]); ok {
			pass.Reportf(call.Pos(), "copy into index.%s: CSR sections may alias a read-only .orix mmap and must never be overwritten (DESIGN.md §7)", name)
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
				pass.Reportf(call.Pos(), "%s.%s reorders index.%s: CSR sections are position-sorted per code and may alias a read-only mmap (DESIGN.md §7)", fn.Pkg().Name(), fn.Name(), name)
			}
		}
	}
}
