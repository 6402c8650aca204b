package lint

// hotalloc enforces the hot-loop budget (DESIGN.md §2): the step-2
// scan, the blat tile probe, and the CSR extend splice process one
// element per iteration at memory speed, so their per-element paths
// must not allocate, box into interfaces, or format. A function opts
// in with //scorislint:hotpath on its declaration; inside its loop
// bodies the analyzer flags
//
//   - make / new / &T{} / slice and map literals / string<->[]byte
//     conversions (plain value struct literals are register-friendly
//     and allowed),
//   - any fmt call,
//   - boxing a concrete value into an interface (call argument or
//     assignment),
//   - calls to module functions that allocate anywhere (transitively,
//     over the call graph) — unless the callee is itself hotpath-tagged
//     and therefore checked on its own.
//
// append and copy are allowed (amortized growth is the idiom the
// paper's CSR splice depends on), and function literals are not
// flagged: spawning workers in a loop is setup, not the per-element
// path. Nested literals inside a tagged function are checked as their
// own lexical scopes.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHotAlloc is the hot-path allocation analyzer.
var AnalyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//scorislint:hotpath functions must not allocate, box, or call fmt in their loop bodies (DESIGN.md §2)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	mod := pass.Module()

	// allocates: the function's body performs an allocation anywhere.
	// Transitive over direct call edges, so a hot loop cannot hide an
	// allocation one call deep. Hotpath-tagged callees are excluded:
	// they are checked on their own terms.
	hot := map[FuncKey]bool{}
	allocates := map[FuncKey]bool{}
	for key, fi := range mod.Funcs {
		hot[key] = funcDirective(fi.Decl, "hotpath")
		allocates[key] = hasDirectAlloc(fi)
	}
	mod.solve(func(fi *FuncInfo) bool {
		if allocates[fi.Key] {
			return false
		}
		for _, e := range mod.Callees(fi.Key) {
			if e.Kind == EdgeDirect && allocates[e.Callee] && !hot[e.Callee] {
				allocates[fi.Key] = true
				return true
			}
		}
		return false
	})

	for key, fi := range mod.Funcs {
		if !hot[key] {
			continue
		}
		checkHotFunc(pass, mod, fi, hot, allocates)
	}
}

// hasDirectAlloc reports whether the function body itself allocates.
func hasDirectAlloc(fi *FuncInfo) bool {
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if kind, _ := allocKind(fi.Pkg.Info, n); kind != "" {
			found = true
			return false
		}
		return true
	})
	return found
}

// allocKind classifies one AST node as an allocation, returning a
// description and the node to report at ("" if not an allocation).
func allocKind(info *types.Info, n ast.Node) (string, ast.Node) {
	switch v := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if _, isB := info.Uses[id].(*types.Builtin); isB {
				switch id.Name {
				case "make":
					return "make", v
				case "new":
					return "new", v
				}
				return "", nil
			}
		}
		// string<->[]byte conversions copy.
		if tv, ok := info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			to, from := tv.Type, typeOf(info, v.Args[0])
			if to != nil && from != nil && stringBytesConversion(to, from) {
				return "string/[]byte conversion", v
			}
			return "", nil
		}
		if fn := calleeFunc(info, v); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return "fmt." + fn.Name(), v
		}
	case *ast.UnaryExpr:
		if v.Op.String() == "&" {
			if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				return "&composite literal", v
			}
		}
	case *ast.CompositeLit:
		if t := typeOf(info, v); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				return "slice/map literal", v
			}
		}
	}
	return "", nil
}

func stringBytesConversion(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		return ok && isByte(s.Elem())
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}

// checkHotFunc flags per-element violations inside the loop bodies of
// one hotpath function. Each function literal inside is its own
// lexical scope: a loop in the literal counts, a loop merely enclosing
// the literal's creation does not.
func checkHotFunc(pass *Pass, mod *Module, fi *FuncInfo, hot, allocates map[FuncKey]bool) {
	info := fi.Pkg.Info
	var scopes []*ast.BlockStmt
	scopes = append(scopes, fi.Decl.Body)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, lit.Body)
		}
		return true
	})
	reported := map[token.Pos]bool{}
	for _, scope := range scopes {
		inspectShallow(scope, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			checkLoopBody(pass, mod, info, body, hot, allocates, reported)
			return true
		})
	}
}

// checkLoopBody flags allocation, fmt, boxing, and allocating module
// calls inside one loop body (not descending into nested literals —
// they are scopes of their own). Nested loops are visited once per
// enclosure; reported dedupes.
func checkLoopBody(pass *Pass, mod *Module, info *types.Info, body *ast.BlockStmt, hot, allocates map[FuncKey]bool, reported map[token.Pos]bool) {
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	inspectShallow(body, func(n ast.Node) bool {
		if kind, at := allocKind(info, n); kind != "" {
			report(at.Pos(), "%s in the loop body of a //scorislint:hotpath function (DESIGN.md §2: no per-element allocation)", kind)
			return true
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			checkCallBoxing(pass, info, v, reported)
			if fn := calleeFunc(info, v); fn != nil {
				key := KeyOf(fn)
				if _, inModule := mod.Funcs[key]; inModule && allocates[key] && !hot[key] {
					report(v.Pos(), "call to %s, which allocates, in the loop body of a //scorislint:hotpath function (DESIGN.md §2)", fn.Name())
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				lt, rt := typeOf(info, lhs), typeOf(info, v.Rhs[i])
				if boxes(lt, rt) {
					report(v.Rhs[i].Pos(), "assignment boxes %s into interface %s in a //scorislint:hotpath loop (DESIGN.md §2)", rt, lt)
				}
			}
		}
		return true
	})
}

// checkCallBoxing flags concrete values passed to interface
// parameters.
func checkCallBoxing(pass *Pass, info *types.Info, call *ast.CallExpr, reported map[token.Pos]bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	sigT := typeOf(info, call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pt, typeOf(info, arg)) && !reported[arg.Pos()] {
			reported[arg.Pos()] = true
			pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in a //scorislint:hotpath loop (DESIGN.md §2)", typeOf(info, arg), pt)
		}
	}
}

// boxes reports whether assigning a value of type from to a location
// of type to converts a concrete value to an interface.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if !types.IsInterface(to.Underlying()) || types.IsInterface(from.Underlying()) {
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}
