package lint

import (
	"go/ast"
	"go/types"
)

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// isNamed reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// typeOf is info.TypeOf, nil-safe for expressions the checker never
// recorded.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return info.TypeOf(e)
}

// calleeFunc resolves a call's callee to its types.Func when the
// callee is a package-level function or a method; nil otherwise
// (builtins, function-typed variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes pkgPath.name (a package-level
// function, not a method).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// isBuiltin reports whether call invokes the builtin name (append,
// copy, close, ...).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// functionBodies lists the body of every function declaration and
// literal in f.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// inspectShallow walks n but does not descend into nested function
// literals, so statements are attributed to their lexical function.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return fn(x)
	})
}

// directiveLines maps "comment directive with prefix" occurrences in a
// file to the source lines they annotate. A directive anywhere in a
// comment group annotates the group's last line and the line after it,
// so trailing comments, single preceding comments, and multi-line
// preceding comments all cover the statement they sit on or above. A
// directive with nothing after its prefix annotates nothing.
func directiveLines(pass *Pass, f *ast.File, prefix string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		matched := false
		for _, c := range cg.List {
			text := c.Text
			if len(text) < 2 || text[:2] != "//" {
				continue
			}
			body := text[2:]
			for len(body) > 0 && (body[0] == ' ' || body[0] == '\t') {
				body = body[1:]
			}
			if len(body) < len(prefix) || body[:len(prefix)] != prefix {
				continue
			}
			rest := body[len(prefix):]
			for len(rest) > 0 && (rest[0] == ' ' || rest[0] == '\t') {
				rest = rest[1:]
			}
			if rest == "" {
				continue
			}
			matched = true
		}
		if matched {
			line := pass.Fset.Position(cg.End()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}
