package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
)

// AnalyzerCheckedFlush is the regression guard for the silent-m8-
// truncation class fixed in PR 5: a buffered writer whose Flush error
// is dropped, or a written file whose Close error is dropped, turns
// ENOSPC into a truncated result file behind exit code 0. It flags:
//
//   - a Flush() call whose single error result is discarded (bare
//     statement or defer), on any type whose Flush returns exactly one
//     error — bufio.Writer, fasta.Writer, and future buffered writers
//     alike (http.Flusher's Flush returns nothing and is exempt);
//   - a Close() with discarded error on a handle obtained from
//     os.Create or a writable os.OpenFile in the same function. A
//     deferred discarded Close is accepted when the same function also
//     consumes a Close error on that handle — the "defer as error-path
//     backstop, checked Close on the success path" idiom (ixdisk's
//     appendBlockAt); a bare discarded Close statement never is.
//
// Read-side handles (os.Open) may keep the idiomatic discarded
// `defer f.Close()`.
var AnalyzerCheckedFlush = &Analyzer{
	Name: "checkedflush",
	Doc:  "Flush/Close errors on output paths must be consumed (silent-truncation regression guard)",
	// Test goroutines leak and test writers truncate the same way
	// production ones do.
	AnalyzeTests: true,
	Run:          runCheckedFlush,
}

func runCheckedFlush(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		for _, f := range pass.Files(pkg) {
			for _, body := range functionBodies(f) {
				checkFlushIn(pass, pkg, body)
			}
		}
	}
}

func checkFlushIn(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	// Handles created for writing in this function (lexically).
	writeHandles := map[types.Object]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok || !isWriteOpen(pkg, call) {
			return true
		}
		if id, ok := st.Lhs[0].(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				writeHandles[obj] = true
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				writeHandles[obj] = true
			}
		}
		return true
	})

	// closeTarget resolves a call to a Close() on one of this
	// function's write handles.
	closeTarget := func(call *ast.CallExpr) (types.Object, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return nil, false
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := pkg.Info.Uses[id]
		return obj, writeHandles[obj]
	}

	// First sweep: find discarded Flush/Close sites and count every
	// Close per handle, so a consumed Close can vouch for a deferred
	// backstop. Walks the full body (nested closures included): a bare
	// Flush is a bare Flush wherever it lexically sits, and
	// writeHandles only contains this function's own handles.
	type discard struct {
		call     *ast.CallExpr
		deferred bool
	}
	var flushDiscards []discard
	var closeDiscards []discard
	closes := map[types.Object]int{}    // all Close calls per handle
	discarded := map[types.Object]int{} // discarded Close calls per handle

	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, isWrite := closeTarget(call); isWrite {
				closes[obj]++
			}
			return true
		}
		var call *ast.CallExpr
		deferred := false
		switch st := n.(type) {
		case *ast.ExprStmt:
			call, _ = ast.Unparen(st.X).(*ast.CallExpr)
		case *ast.DeferStmt:
			call, deferred = st.Call, true
		}
		if call == nil {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Flush":
			if returnsSingleError(pkg, call) {
				flushDiscards = append(flushDiscards, discard{call, deferred})
			}
		case "Close":
			if obj, isWrite := closeTarget(call); isWrite {
				discarded[obj]++
				closeDiscards = append(closeDiscards, discard{call, deferred})
			}
		}
		return true
	})

	for _, d := range flushDiscards {
		how := "discarded"
		if d.deferred {
			how = "deferred with its error discarded"
		}
		pass.Reportf(d.call.Pos(), "Flush error %s: an unflushed buffer truncates the output file behind a zero exit (use cliflag.Finish or check the error; PR 5 regression class)", how)
	}
	for _, d := range closeDiscards {
		obj, _ := closeTarget(d.call)
		if d.deferred && closes[obj] > discarded[obj] {
			// Error-path backstop: the success path consumes a Close
			// error on this handle.
			continue
		}
		how := "discarded"
		if d.deferred {
			how = "deferred with its error discarded, and no checked Close elsewhere"
		}
		pass.Reportf(d.call.Pos(), "Close error %s on a handle opened for writing: close failures lose buffered data silently (join the error on a defer or check it; PR 5 regression class)", how)
	}
}

// returnsSingleError reports whether the call's result is exactly one
// value of type error.
func returnsSingleError(pkg *Package, call *ast.CallExpr) bool {
	t := typeOf(pkg.Info, call)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isWriteOpen reports whether call opens a file for writing:
// os.Create, or os.OpenFile whose flag argument is either unknown or
// statically contains a write bit.
func isWriteOpen(pkg *Package, call *ast.CallExpr) bool {
	if isPkgFunc(pkg.Info, call, "os", "Create") {
		return true
	}
	if !isPkgFunc(pkg.Info, call, "os", "OpenFile") || len(call.Args) < 2 {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true // dynamic flags: assume writable
	}
	flag, ok := constant.Int64Val(tv.Value)
	if !ok {
		return true
	}
	return flag&int64(os.O_WRONLY|os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC) != 0
}
