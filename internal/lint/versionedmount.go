package lint

import (
	"go/ast"
)

const httpapiPkgPath = "repro/internal/httpapi"

// AnalyzerVersionedMount enforces the API-versioning contract of
// DESIGN.md §8: every HTTP surface is mounted through
// httpapi.Versioned, which serves the mux under /v1 and nothing
// outside it. A function that registers handlers on a raw
// *http.ServeMux without passing a mux through httpapi.Versioned — or
// that registers on net/http's global DefaultServeMux at all — is
// mounting an unversioned surface.
//
// Package httpapi itself is exempt: it is the one place the /v1 mount
// is implemented.
var AnalyzerVersionedMount = &Analyzer{
	Name: "versionedmount",
	Doc:  "HTTP handlers must be mounted through httpapi.Versioned: every route lives under /v1 (DESIGN.md §8)",
	Run:  runVersionedMount,
}

func runVersionedMount(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if pkg.Path == httpapiPkgPath {
			continue
		}
		for _, f := range pass.Files(pkg) {
			// Only walk declarations; a FuncLit's registrations are
			// attributed to the enclosing declaration, where the
			// Versioned wrap (if any) also lexically lives.
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkMountsIn(pass, pkg, fd.Body)
			}
		}
	}
}

func checkMountsIn(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	var rawMounts []*ast.CallExpr
	versioned := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pkg.Info, call, httpapiPkgPath, "Versioned") {
			versioned = true
			return true
		}
		// Global-mux registration is never versioned; flag outright.
		if isPkgFunc(pkg.Info, call, "net/http", "Handle") || isPkgFunc(pkg.Info, call, "net/http", "HandleFunc") {
			pass.Reportf(call.Pos(), "handler registered on net/http's DefaultServeMux: mount under /v1 through httpapi.Versioned on an explicit mux (DESIGN.md §8)")
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		if t := typeOf(pkg.Info, sel.X); t != nil && isNamed(t, "net/http", "ServeMux") {
			rawMounts = append(rawMounts, call)
		}
		return true
	})
	if versioned {
		return
	}
	for _, call := range rawMounts {
		pass.Reportf(call.Pos(), "handler mounted on a raw *http.ServeMux in a function that never calls httpapi.Versioned: mount under /v1 (DESIGN.md §8)")
	}
}
