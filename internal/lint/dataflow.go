package lint

// Interprocedural dataflow infrastructure: a whole-module call graph,
// one summary solver, and one statement walk. The flow analyzers
// (untrustedix, detorder, guardedby, hotalloc) keep their summaries in
// their own maps and hand solve a step function; the other analyzers
// are single-function.
//
// Functions are identified by FuncKey — the types.Func.FullName()
// string — never by object identity: the loader type-checks each
// package from source but resolves imports through gc export data, so
// the *types.Func seen at a cross-package call site is a different
// object from the one owning the body. The string key is stable across
// that divide.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// FuncKey names one function or method, e.g.
// "repro/internal/ixdisk.parseFooter" or
// "(*repro/internal/hsp.Extender).Extend".
type FuncKey string

// KeyOf returns the stable key for fn (generic instances collapse to
// their origin).
func KeyOf(fn *types.Func) FuncKey {
	if fn == nil {
		return ""
	}
	return FuncKey(fn.Origin().FullName())
}

// EdgeKind classifies how a call-graph edge is made.
type EdgeKind int

const (
	// EdgeDirect is a static call: pkg.F(...) or concrete v.M(...).
	EdgeDirect EdgeKind = iota
	// EdgeMethodValue is a function or method referenced as a value
	// (x.M passed as a callback, f := pkg.F) — invoked elsewhere, so
	// the reference site is the edge.
	EdgeMethodValue
	// EdgeInterface is a call through an interface method, fanned out
	// to every module type that implements the interface.
	EdgeInterface
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeDirect:
		return "direct"
	case EdgeMethodValue:
		return "method-value"
	case EdgeInterface:
		return "interface"
	}
	return "unknown"
}

// Edge is one call-graph edge, positioned at its call or reference
// site.
type Edge struct {
	Caller FuncKey
	Callee FuncKey
	Kind   EdgeKind
	Pos    token.Pos
}

// FuncInfo is one module function with a body.
type FuncInfo struct {
	Key  FuncKey
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Params maps each named receiver and parameter to its slot: the
	// receiver (named or not) is slot 0 of a method, then one slot per
	// parameter, the order effectiveArgs gives a call's arguments.
	Params map[types.Object]int
}

// Module is the whole-module dataflow index: every function body in
// the loaded (non-test) tree and the call graph over them. Built once
// per Run and shared by every analyzer.
type Module struct {
	Funcs map[FuncKey]*FuncInfo
	Keys  []FuncKey // Funcs' keys, sorted
	Edges []Edge

	calleesOf map[FuncKey][]Edge
	callersOf map[FuncKey][]Edge
}

// Callees returns the edges leaving fn.
func (m *Module) Callees(fn FuncKey) []Edge { return m.calleesOf[fn] }

// Callers returns the edges arriving at fn.
func (m *Module) Callers(fn FuncKey) []Edge { return m.callersOf[fn] }

// solve runs step over the module's functions until no summary grows.
// Every function is seeded in Keys order; one whose step reports
// growth re-queues its callers. There is no round cap, so each step
// must only add to a finite summary.
func (m *Module) solve(step func(*FuncInfo) bool) {
	queue := slices.Clone(m.Keys)
	queued := make(map[FuncKey]bool, len(queue))
	for _, k := range queue {
		queued[k] = true
	}
	for len(queue) > 0 {
		k := queue[0]
		queue, queued[k] = queue[1:], false
		if !step(m.Funcs[k]) {
			continue
		}
		for _, e := range m.Callers(k) {
			if !queued[e.Caller] {
				queued[e.Caller] = true
				queue = append(queue, e.Caller)
			}
		}
	}
}

// buildModule indexes every non-test function body and the call graph
// over them. Test files never enter the graph: flow facts inferred
// from test-only call sites must not bless or blame production code.
func buildModule(pass *Pass) *Module {
	m := &Module{
		Funcs:     map[FuncKey]*FuncInfo{},
		calleesOf: map[FuncKey][]Edge{},
		callersOf: map[FuncKey][]Edge{},
	}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			if pkg.TestFiles[f] {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				m.Funcs[KeyOf(fn)] = &FuncInfo{Key: KeyOf(fn), Obj: fn, Decl: fd, Pkg: pkg, Params: paramSlots(pkg.Info, fd)}
				m.Keys = append(m.Keys, KeyOf(fn))
			}
		}
	}
	slices.Sort(m.Keys)
	for _, fi := range m.Funcs {
		collectEdges(m, fi)
	}
	sort.Slice(m.Edges, func(i, j int) bool {
		a, b := m.Edges[i], m.Edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return a.Pos < b.Pos
	})
	for _, e := range m.Edges {
		m.calleesOf[e.Caller] = append(m.calleesOf[e.Caller], e)
		m.callersOf[e.Callee] = append(m.callersOf[e.Callee], e)
	}
	return m
}

// collectEdges walks one function body recording direct-call,
// method-value, and interface-dispatch edges.
func collectEdges(m *Module, fi *FuncInfo) {
	info := fi.Pkg.Info
	caller := fi.Key

	// callFuns marks expressions in call position, so a selector used
	// as a callee is not double-counted as a method value.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	add := func(callee *types.Func, kind EdgeKind, pos token.Pos) {
		if callee == nil {
			return
		}
		key := KeyOf(callee)
		if _, inModule := m.Funcs[key]; !inModule {
			return // stdlib / bodiless: not a graph node
		}
		m.Edges = append(m.Edges, Edge{Caller: caller, Callee: key, Kind: kind, Pos: pos})
	}

	// selParts marks the Sel ident of every selector, so a qualified
	// function reference (pkg.Fn, v.Method) is attributed once, to the
	// selector, and never re-counted when Inspect reaches the ident.
	selParts := map[*ast.Ident]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			selParts[sel.Sel] = true
		}
		return true
	})

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn == nil {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				// Interface dispatch: edge to every module
				// implementation of the method.
				for _, impl := range m.implementationsOf(fn) {
					add(impl, EdgeInterface, x.Pos())
				}
				return true
			}
			add(fn, EdgeDirect, x.Pos())
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(x)] {
				return true
			}
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					for _, impl := range m.implementationsOf(fn) {
						add(impl, EdgeMethodValue, x.Pos())
					}
					return true
				}
				add(fn, EdgeMethodValue, x.Pos())
			}
		case *ast.Ident:
			if callFuns[ast.Expr(x)] || selParts[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
				add(fn, EdgeMethodValue, x.Pos())
			}
		}
		return true
	})
}

// implementationsOf returns the module methods that implement the
// interface method ifn: for every module function with the same name,
// its receiver type (or a pointer to it) must satisfy ifn's interface.
func (m *Module) implementationsOf(ifn *types.Func) []*types.Func {
	iface, _ := ifn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []*types.Func
	for _, fi := range m.Funcs {
		fn := fi.Obj
		if fn.Name() != ifn.Name() {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(deref(rt)), iface) {
			out = append(out, fn)
		}
	}
	return out
}

// paramSlots numbers fd's receiver and parameters (see
// FuncInfo.Params). Unnamed slots still advance the count, so caller
// and callee agree on positions.
func paramSlots(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	slots := map[types.Object]int{}
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	i := 0
	for _, field := range append(fields, fd.Type.Params.List...) {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				slots[obj] = i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return slots
}

// numParams is the number of parameter slots of fn.
func numParams(fn *types.Func) int {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		return sig.Params().Len() + 1
	}
	return sig.Params().Len()
}

// effectiveArgs aligns call arguments with parameter slots: the
// receiver expression first for methods (nil when the call is not a
// selector), then the arguments.
func effectiveArgs(call *ast.CallExpr, sig *types.Signature) []ast.Expr {
	var args []ast.Expr
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		} else {
			args = append(args, nil)
		}
	}
	return append(args, call.Args...)
}

// stmtVisitor is what an analyzer hands walkStmt: the statements and
// expressions the walk does not take apart, and hooks around loops,
// range headers and if statements.
type stmtVisitor interface {
	leaf(ast.Stmt)                   // assignment, declaration, return, call, defer, go, send, ...
	expr(ast.Expr)                   // if/for condition, switch tag, case value; may be nil
	rangeHead(*ast.RangeStmt) func() // range operand and variables; returns what to run after the body, or nil
	loop(body func())                // runs a loop body (and post statement) once or more
	ifDone(*ast.IfStmt)              // after an if statement and its branches
}

// walkStmt is the statement recursion the flow analyzers share: it
// visits s in source order and never branches on which analyzer it
// serves.
func walkStmt(v stmtVisitor, s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		walkStmts(v, s.List)
	case *ast.LabeledStmt:
		walkStmt(v, s.Stmt)
	case *ast.IfStmt:
		walkStmt(v, s.Init)
		v.expr(s.Cond)
		walkStmts(v, s.Body.List)
		walkStmt(v, s.Else)
		v.ifDone(s)
	case *ast.ForStmt:
		walkStmt(v, s.Init)
		v.expr(s.Cond)
		v.loop(func() {
			walkStmts(v, s.Body.List)
			walkStmt(v, s.Post)
		})
	case *ast.RangeStmt:
		after := v.rangeHead(s)
		v.loop(func() { walkStmts(v, s.Body.List) })
		if after != nil {
			after()
		}
	case *ast.SwitchStmt:
		walkStmt(v, s.Init)
		v.expr(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, x := range cc.List {
				v.expr(x)
			}
			walkStmts(v, cc.Body)
		}
	case *ast.TypeSwitchStmt:
		walkStmt(v, s.Init)
		walkStmt(v, s.Assign)
		for _, c := range s.Body.List {
			walkStmts(v, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			walkStmt(v, cc.Comm)
			walkStmts(v, cc.Body)
		}
	default:
		v.leaf(s)
	}
}

func walkStmts(v stmtVisitor, list []ast.Stmt) {
	for _, s := range list {
		walkStmt(v, s)
	}
}

// funcDirective reports whether the doc comment of decl carries the
// given //scorislint:<name> directive.
func funcDirective(decl *ast.FuncDecl, name string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "scorislint:"+name {
			return true
		}
	}
	return false
}
