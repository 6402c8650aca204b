package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerGoExit requires every spawned goroutine to have a visible
// lifecycle. A `go` statement passes if its function literal body
// shows one of the accepted termination/join signals:
//
//   - sync.WaitGroup.Done (typically deferred) — joined by Wait;
//   - a channel send or close — joined by the receiver;
//   - a channel receive or a context consult — bounded by the
//     closer/canceller;
//
// or if the statement carries an explicit justification comment on its
// line or the line above:
//
//	// background: <why this goroutine may outlive its spawner>
//
// `go` of a named function always needs the comment: the lifecycle is
// not visible at the spawn site.
//
// This is the machine check behind the fleet/server shutdown story
// (DESIGN.md §8–§10): graceful drain only works when no goroutine is
// fire-and-forget by accident.
var AnalyzerGoExit = &Analyzer{
	Name: "goexit",
	Doc:  "every go statement needs a visible lifecycle (WaitGroup/channel/ctx) or a '// background:' justification",
	// Test goroutines leak and test writers truncate the same way
	// production ones do.
	AnalyzeTests: true,
	Run:          runGoExit,
}

const backgroundPrefix = "background:"

func runGoExit(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pass.Files(pkg) {
			justified := directiveLines(pass, f, backgroundPrefix)
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if justified[pass.Fset.Position(st.Pos()).Line] {
					return true
				}
				lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit)
				if !ok {
					pass.Reportf(st.Pos(), "go statement on a named function hides its lifecycle from the spawn site: join it here (WaitGroup/channel) or justify with '// background: <reason>'")
					return true
				}
				if !hasLifecycleSignal(pkg, lit.Body) {
					pass.Reportf(st.Pos(), "goroutine without a visible lifecycle: no WaitGroup.Done, channel send/close/receive, or context consult in its body — join it or justify with '// background: <reason>' (graceful drain depends on accounted goroutines, DESIGN.md §8)")
				}
				return true
			})
		}
	}
}

// hasLifecycleSignal scans a goroutine body (closures included) for
// any accepted termination/join signal.
func hasLifecycleSignal(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			// <-ch receive: bounded by the sender/closer.
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(pkg.Info, x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isBuiltin(pkg.Info, x, "close") {
				found = true
				break
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Done" || sel.Sel.Name == "Wait" {
					if t := typeOf(pkg.Info, sel.X); t != nil && isNamed(t, "sync", "WaitGroup") {
						found = true
					}
				}
			}
		case ast.Expr:
			if t := typeOf(pkg.Info, x); t != nil && isNamed(t, "context", "Context") {
				found = true
			}
		}
		return !found
	})
	return found
}
