package lint

// detorder mechanizes the byte-identity invariant: every emitted m8
// stream, stored .orix image, JSON response, and /stats snapshot must
// be byte-deterministic, because CI compares them against the serial
// CLI byte-for-byte. Go map iteration order is deliberately random, so
// values that flow out of a `for range` over a map must pass through
// an explicit sort before they reach an output.
//
// The analysis is interprocedural over the module call graph: a
// function that returns a slice built from map iteration publishes a
// "returns unordered" summary, and a function that writes a parameter
// to an encoder or writer publishes "parameter emits" — so building
// the slice in one function and emitting it from another is still a
// finding. Sorting (sort.* / slices.Sort*) clears the unordered mark.
// Commutative uses — counters, sums, min/max folds — never flag,
// because only values appended or emitted in iteration order carry the
// nondeterminism into the output bytes.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AnalyzerDetOrder is the map-order determinism analyzer.
var AnalyzerDetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "values from map iteration must be sorted before reaching emitted streams, stored files, or JSON (byte-identity invariant)",
	Run:  runDetOrder,
}

// orderSummary is one function's ordering summary; it only grows.
type orderSummary struct {
	returnsUnordered bool
	desc             string // origin of the disorder, for messages
	paramEmits       []bool // parameter i is written to an output
}

type orderState struct {
	pass      *Pass
	summaries map[FuncKey]*orderSummary
}

func runDetOrder(pass *Pass) {
	mod := pass.Module()
	st := &orderState{pass: pass, summaries: map[FuncKey]*orderSummary{}}
	for key, fi := range mod.Funcs {
		st.summaries[key] = &orderSummary{paramEmits: make([]bool, numParams(fi.Obj))}
	}
	mod.solve(func(fi *FuncInfo) bool { return st.analyze(fi, false) })
	for _, key := range mod.Keys {
		st.analyze(mod.Funcs[key], true)
	}
}

type orderEngine struct {
	st   *orderState
	fi   *FuncInfo
	info *types.Info
	sum  *orderSummary
	grew bool // sum gained a fact

	// unordered maps an object to the description of the map iteration
	// its contents came from; derived tracks values computed from the
	// current iteration's variables.
	unordered map[types.Object]string
	derived   map[types.Object]string

	report   bool
	reported map[token.Pos]bool
}

// analyze walks fi's body, adding what it finds to fi's summary, and
// reports whether the summary grew.
func (st *orderState) analyze(fi *FuncInfo, report bool) bool {
	e := &orderEngine{
		st: st, fi: fi, info: fi.Pkg.Info, sum: st.summaries[fi.Key],
		unordered: map[types.Object]string{},
		derived:   map[types.Object]string{},
		report:    report,
		reported:  map[token.Pos]bool{},
	}
	walkStmt(e, fi.Decl.Body)
	return e.grew
}

// disorderOf returns the iteration-origin description of x, or "".
func (e *orderEngine) disorderOf(x ast.Expr) string {
	desc := ""
	ast.Inspect(x, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := e.info.Uses[id]; obj != nil {
				if d := e.unordered[obj]; d != "" {
					desc = d
				} else if d := e.derived[obj]; d != "" {
					desc = d
				}
			}
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(e.info, call); fn != nil {
				if sum := e.st.summaries[KeyOf(fn)]; sum != nil && sum.returnsUnordered {
					desc = sum.desc
					if desc == "" {
						desc = "map iteration in " + fn.Name()
					}
					return false
				}
			}
		}
		return true
	})
	return desc
}

func (e *orderEngine) reportAt(pos token.Pos, desc, what string) {
	if e.reported[pos] {
		return
	}
	e.reported[pos] = true
	if e.report {
		e.st.pass.Reportf(pos, "values from %s reach %s without an intervening sort; output bytes become nondeterministic (byte-identity invariant)", desc, what)
	}
}

// handleCall processes one call expression for sort-clearing,
// emission, and summary application.
func (e *orderEngine) handleCall(call *ast.CallExpr) {
	fn := calleeFunc(e.info, call)
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	name := fn.Name()
	sig := fn.Type().(*types.Signature)

	// Sorting blesses the slice.
	if isSortCall(pkgPath, name) {
		if len(call.Args) > 0 {
			if obj := sortTargetObj(e.info, call.Args[0]); obj != nil {
				delete(e.unordered, obj)
				delete(e.derived, obj)
			}
		}
		return
	}

	// Emission: check the data arguments.
	emitsArg := func(arg ast.Expr, what string) {
		if desc := e.disorderOf(arg); desc != "" {
			e.reportAt(call.Pos(), desc, what)
		}
		if i, ok := e.fi.Params[rootObj(e.info, arg)]; ok && !e.sum.paramEmits[i] {
			e.sum.paramEmits[i] = true
			e.grew = true
		}
	}
	switch {
	case sig.Recv() != nil && name == "Encode" && isNamed(sig.Recv().Type(), "encoding/json", "Encoder"):
		for _, a := range call.Args {
			emitsArg(a, "a JSON response")
		}
	case pkgPath == "encoding/json" && (name == "Marshal" || name == "MarshalIndent"):
		for _, a := range call.Args {
			emitsArg(a, "marshaled JSON")
		}
	case pkgPath == "fmt" && strings.HasPrefix(name, "Fprint"):
		for _, a := range call.Args[1:] {
			emitsArg(a, "a formatted output stream")
		}
	case sig.Recv() != nil && (name == "Write" || name == "WriteString"):
		for _, a := range call.Args {
			emitsArg(a, "a writer")
		}
	default:
		// Module function with emitting parameters.
		if sum := e.st.summaries[KeyOf(fn)]; sum != nil {
			args := effectiveArgs(call, sig)
			for i, a := range args {
				if a == nil || i >= len(sum.paramEmits) || !sum.paramEmits[i] {
					continue
				}
				emitsArg(a, "an output written by "+name)
			}
		}
	}
}

// isSortCall reports whether pkgPath.name establishes a total order on
// its first argument: the sort package's entry points (Sort, Stable,
// Slice and friends don't have "sort" in the function name) and the
// slices package's Sort* family.
func isSortCall(pkgPath, name string) bool {
	switch pkgPath {
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable",
			"Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// sortTargetObj unwraps sort.Sort(ByName(s)) and sort.Slice(s, less)
// arguments to the underlying slice object.
func sortTargetObj(info *types.Info, x ast.Expr) types.Object {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			return rootObj(info, call.Args[0])
		}
	}
	return rootObj(info, x)
}

// scanCalls processes every call in an expression tree, shallowly.
func (e *orderEngine) scanCalls(n ast.Node) {
	if n == nil {
		return
	}
	inspectShallow(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			e.handleCall(call)
		}
		return true
	})
}

// commutativeFold reports whether the assignment is a compound
// accumulation into a numeric target (+=, -=, *=, |=, &=, ^=), whose
// result cannot depend on iteration order. String += concatenation is
// order-sensitive and stays out.
func commutativeFold(info *types.Info, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	if len(as.Lhs) != 1 {
		return false
	}
	t := typeOf(info, as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// markAssign processes one assignment for disorder propagation.
func (e *orderEngine) markAssign(lhs, rhs ast.Expr) {
	// Appending into a map index is exempt: encoding/json re-sorts map
	// keys on marshal.
	if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if t := typeOf(e.info, ast.Unparen(lhs).(*ast.IndexExpr).X); t != nil {
			if _, isMap := deref(t).Underlying().(*types.Map); isMap {
				return
			}
		}
	}
	desc := e.disorderOf(rhs)
	obj := rootObj(e.info, lhs)
	if obj == nil {
		return
	}
	if desc == "" {
		// Reassignment from an ordered value clears plain locals.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && e.info.Defs[id] != nil {
			delete(e.unordered, obj)
			delete(e.derived, obj)
		}
		return
	}
	if isAppendCall(e.info, rhs) || isSliceLike(typeOf(e.info, lhs)) {
		e.unordered[obj] = desc
	} else {
		e.derived[obj] = desc
	}
}

func isAppendCall(info *types.Info, x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	return ok && isBuiltin(info, call, "append")
}

func isSliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := deref(t).Underlying().(*types.Slice)
	return ok
}

// rangeHead marks the iteration variables of a range over a map, or
// over an unordered slice, as derived for the body walk.
func (e *orderEngine) rangeHead(v *ast.RangeStmt) func() {
	e.scanCalls(v.X)
	t := typeOf(e.info, v.X)
	_, overMap := deref(t).Underlying().(*types.Map)
	desc := ""
	if obj := rootObj(e.info, v.X); obj != nil {
		desc = e.unordered[obj]
	}
	if overMap {
		desc = "map iteration at " + shortPos(e.st.pass.Fset.Position(v.Pos()))
	}
	if desc == "" {
		return nil
	}
	saved := map[types.Object]string{}
	for _, x := range []ast.Expr{v.Key, v.Value} {
		if id, ok := ast.Unparen(x).(*ast.Ident); ok {
			obj := e.info.Defs[id]
			if obj == nil {
				obj = e.info.Uses[id]
			}
			if obj != nil {
				saved[obj] = e.derived[obj]
				e.derived[obj] = desc
			}
		}
	}
	return func() {
		for obj, old := range saved {
			if old == "" {
				delete(e.derived, obj)
			} else {
				e.derived[obj] = old
			}
		}
	}
}

// leaf processes one statement walkStmt does not take apart.
func (e *orderEngine) leaf(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			e.scanCalls(rhs)
		}
		if commutativeFold(e.info, v) {
			// n += len(ss), sum |= bits: the fold result is independent
			// of iteration order — the invariant detorder protects is
			// about bytes emitted in order, not aggregate values.
			return
		}
		for i, lhs := range v.Lhs {
			rhs := ast.Expr(nil)
			if i < len(v.Rhs) {
				rhs = v.Rhs[i]
			} else if len(v.Rhs) == 1 {
				rhs = v.Rhs[0]
			}
			if rhs != nil {
				e.markAssign(lhs, rhs)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, nameID := range vs.Names {
						if i < len(vs.Values) {
							e.scanCalls(vs.Values[i])
							e.markAssign(ast.Expr(nameID), vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			e.scanCalls(r)
			if desc := e.disorderOf(r); desc != "" && !e.sum.returnsUnordered {
				e.sum.returnsUnordered, e.sum.desc = true, desc
				e.grew = true
			}
		}
	default:
		e.scanCalls(s)
	}
}

func (e *orderEngine) expr(x ast.Expr)    { e.scanCalls(x) }
func (e *orderEngine) loop(body func())   { body() }
func (e *orderEngine) ifDone(*ast.IfStmt) {}

// shortPos renders file:line with only the file base name, keeping
// messages stable across checkouts.
func shortPos(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(pos.Line)
}
