package lint

// untrustedix mechanizes DESIGN.md §7's validation boundary: every
// byte that arrives from disk, an mmap window, or the network is
// hostile until a declared validator blesses it. The analyzer runs a
// whole-module taint analysis over the call graph:
//
//   - sources: os.ReadFile results, buffers filled by (*os.File) /
//     io.ReadFull-style reads, http.Request/Response bodies, and
//     functions tagged //scorislint:source (the mmap window);
//   - sinks: slice/array indexing and slice bounds computed from
//     tainted integers, make sizes, ReadAt offsets, and the arguments
//     of index.FromBlocks;
//   - sanitizers: functions tagged //scorislint:validator
//     (parseFooter, decodeBlock, checkParts, ...). Calling one
//     clears the taint of its arguments and receiver; its results are
//     trusted; its own body is the boundary and is exempt from sink
//     checks (hostile-file tests and fuzzers exercise it directly).
//     A validator proves what indexing needs: index.checkParts proves
//     a stored block's structure, every position a window inside its
//     block. That a window holds its slot's code is a fact about the
//     bank's content, not a bound, and is proven where it is first read
//     (index.Part.Prove, DESIGN.md §7) — outside what taint models.
//
// Taint is tracked per value as a set of origins — "came from a real
// source here" plus "came from parameter i" — so one pass over a
// function yields both its local findings and a reusable summary
// (tainted returns, parameters that reach sinks, parameters that get
// validated). Summaries reach fixpoint over the call graph, which is
// what makes the analysis interprocedural: a function that indexes by
// its parameter is a sink at every call site that passes it untrusted
// bytes, whatever package the call is in.
//
// Integer range checks (`if n > len(buf) { return err }`) clear the
// checked integer, but nothing short of a validator clears a byte
// buffer: deleting the parseFooter call from the load path makes
// every downstream directory slice a finding.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerUntrustedIx is the taint analyzer.
var AnalyzerUntrustedIx = &Analyzer{
	Name: "untrustedix",
	Doc:  "untrusted bytes must pass a declared validator before indexing, sizing, or seeking (DESIGN.md §7)",
	Run:  runUntrustedIx,
}

const (
	// taintSrc marks bytes or integers that originate at a real
	// untrusted source. Lower bits mark origin at parameter i.
	taintSrc uint64 = 1 << 63
)

func paramBit(i int) uint64 {
	if i >= 62 {
		return 0 // beyond tracking width: drop, stay quiet
	}
	return 1 << uint(i)
}

// taintSummary is one function's taint summary. It only grows: a
// sink text is set once, when first found, so the fact the solver
// compares is a bit and the summary stays finite round a recursive
// cycle.
type taintSummary struct {
	validator bool
	source    bool

	returns        uint64   // origins that flow to any result
	paramSink      []string // non-empty: what sink parameter i reaches
	paramValidates []bool   // parameter i is passed to a validator
}

// untrustedState is the module-wide driver state.
type untrustedState struct {
	pass      *Pass
	summaries map[FuncKey]*taintSummary
}

func runUntrustedIx(pass *Pass) {
	mod := pass.Module()
	st := &untrustedState{pass: pass, summaries: map[FuncKey]*taintSummary{}}
	for key, fi := range mod.Funcs {
		st.summaries[key] = &taintSummary{
			validator:      funcDirective(fi.Decl, "validator"),
			source:         funcDirective(fi.Decl, "source"),
			paramSink:      make([]string, numParams(fi.Obj)),
			paramValidates: make([]bool, numParams(fi.Obj)),
		}
	}
	mod.solve(func(fi *FuncInfo) bool { return st.analyze(fi, false) })
	for _, key := range mod.Keys {
		st.analyze(mod.Funcs[key], true)
	}
}

// taintEngine analyzes one function body.
type taintEngine struct {
	st    *untrustedState
	fi    *FuncInfo
	info  *types.Info
	sum   *taintSummary
	state map[types.Object]uint64
	grew  bool // sum gained a fact

	report   bool
	reported map[string]bool
}

// analyze walks fi's body, adding what it finds to fi's summary, and
// reports whether the summary grew.
func (st *untrustedState) analyze(fi *FuncInfo, report bool) bool {
	e := &taintEngine{
		st:       st,
		fi:       fi,
		info:     fi.Pkg.Info,
		sum:      st.summaries[fi.Key],
		state:    map[types.Object]uint64{},
		report:   report,
		reported: map[string]bool{},
	}
	for obj, i := range fi.Params {
		e.state[obj] = paramBit(i)
	}
	walkStmt(e, fi.Decl.Body)
	return e.grew
}

// sink records a finding (or a parameter-sink summary entry) for a
// tainted value reaching the described sink.
func (e *taintEngine) sink(pos token.Pos, taint uint64, what string) {
	if e.sum.validator {
		return // validator bodies are the trusted boundary
	}
	if taint&taintSrc != 0 && e.report {
		k := fmt.Sprint(pos, what)
		if !e.reported[k] {
			e.reported[k] = true
			e.st.pass.Reportf(pos, "untrusted bytes reach %s without passing a validator (DESIGN.md §7)", what)
		}
	}
	for i := range e.sum.paramSink {
		if taint&paramBit(i) != 0 && e.sum.paramSink[i] == "" {
			e.sum.paramSink[i] = what + " in " + e.fi.Obj.Name()
			e.grew = true
		}
	}
}

// rootObj unwraps an lvalue-ish expression to the object of its base
// identifier.
func rootObj(info *types.Info, x ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(x).(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			x = v.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// clear removes all taint from the base object of x, recording a
// paramValidates fact when that object is a parameter.
func (e *taintEngine) clear(x ast.Expr) {
	obj := rootObj(e.info, x)
	if obj == nil {
		return
	}
	e.state[obj] = 0
	if i, ok := e.fi.Params[obj]; ok && !e.sum.paramValidates[i] {
		e.sum.paramValidates[i] = true
		e.grew = true
	}
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func isIntegerish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isConstExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	return ok && tv.Value != nil
}

// eval computes the taint of an expression, performing sink checks on
// the way down.
func (e *taintEngine) eval(x ast.Expr) uint64 {
	if x == nil {
		return 0
	}
	if isConstExpr(e.info, x) {
		return 0
	}
	switch v := ast.Unparen(x).(type) {
	case *ast.Ident:
		if obj := e.info.Uses[v]; obj != nil {
			return e.state[obj]
		}
		return 0
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.SelectorExpr:
		base := e.eval(v.X)
		// HTTP bodies are wire bytes.
		if v.Sel.Name == "Body" {
			t := typeOf(e.info, v.X)
			if t != nil && (isNamed(t, "net/http", "Request") || isNamed(t, "net/http", "Response")) {
				return base | taintSrc
			}
		}
		return base // coarse struct taint: tainted struct, tainted field
	case *ast.IndexExpr:
		baseT := typeOf(e.info, v.X)
		base := e.eval(v.X)
		idx := e.eval(v.Index)
		if baseT != nil && !isMapOrTypeParam(baseT) {
			idxT := typeOf(e.info, v.Index)
			if idx != 0 && (idxT == nil || !isByte(idxT)) {
				e.sink(v.Index.Pos(), idx, "a slice index")
			}
		}
		return base // element of tainted slice is tainted; index taint does not transfer
	case *ast.SliceExpr:
		base := e.eval(v.X)
		for _, bound := range []ast.Expr{v.Low, v.High, v.Max} {
			if bound == nil {
				continue
			}
			if b := e.eval(bound); b != 0 {
				e.sink(bound.Pos(), b, "a slice bound")
			}
		}
		return base
	case *ast.StarExpr:
		return e.eval(v.X)
	case *ast.UnaryExpr:
		return e.eval(v.X)
	case *ast.BinaryExpr:
		return e.eval(v.X) | e.eval(v.Y)
	case *ast.CompositeLit:
		var t uint64
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= e.eval(kv.Value)
			} else {
				t |= e.eval(el)
			}
		}
		return t
	case *ast.KeyValueExpr:
		return e.eval(v.Value)
	case *ast.TypeAssertExpr:
		return e.eval(v.X)
	case *ast.CallExpr:
		return e.call(v)
	}
	return 0
}

func isMapOrTypeParam(t types.Type) bool {
	switch deref(t).Underlying().(type) {
	case *types.Map, *types.Interface:
		return true
	}
	return false
}

// call handles every call expression: builtins, conversions, external
// sources, summary application, and call-site sinks.
func (e *taintEngine) call(call *ast.CallExpr) uint64 {
	// Conversions propagate: int64(tainted) is tainted.
	if tv, ok := e.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return e.eval(call.Args[0])
		}
		return 0
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := e.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap", "new":
				for _, a := range call.Args {
					e.eval(a)
				}
				return 0
			case "make":
				for _, a := range call.Args[1:] {
					if t := e.eval(a); t != 0 {
						e.sink(a.Pos(), t, "a make size")
					}
				}
				return 0
			case "append", "min", "max":
				var t uint64
				for _, a := range call.Args {
					t |= e.eval(a)
				}
				return t
			case "copy":
				src := e.eval(call.Args[1])
				e.eval(call.Args[0])
				if src != 0 {
					if obj := rootObj(e.info, call.Args[0]); obj != nil {
						e.state[obj] |= src
					}
				}
				return 0
			default:
				for _, a := range call.Args {
					e.eval(a)
				}
				return 0
			}
		}
	}

	fn := calleeFunc(e.info, call)
	if fn == nil {
		// Function-typed variable: evaluate args for nested sinks.
		for _, a := range call.Args {
			e.eval(a)
		}
		return 0
	}

	sig := fn.Type().(*types.Signature)
	argExprs := effectiveArgs(call, sig)
	argTaint := make([]uint64, len(argExprs))
	for i, a := range argExprs {
		if a != nil {
			argTaint[i] = e.eval(a)
		}
	}

	key := KeyOf(fn)
	if sum, inModule := e.st.summaries[key]; inModule {
		return e.moduleCall(call, argExprs, argTaint, fn, sum)
	}
	return e.externalCall(call, fn, sig, argExprs, argTaint)
}

// moduleCall applies a module function's summary at the call site.
func (e *taintEngine) moduleCall(call *ast.CallExpr, argExprs []ast.Expr, argTaint []uint64, fn *types.Func, sum *taintSummary) uint64 {
	if sum.source {
		return taintSrc
	}
	if sum.validator {
		for _, a := range argExprs {
			if a != nil {
				e.clear(a)
			}
		}
		return 0
	}
	for i, t := range argTaint {
		if t == 0 || i >= len(sum.paramSink) {
			continue
		}
		if what := sum.paramSink[i]; what != "" {
			e.sink(call.Pos(), t, what+" (via call to "+fn.Name()+")")
		}
	}
	for i := range argTaint {
		if i < len(sum.paramValidates) && sum.paramValidates[i] && argExprs[i] != nil {
			e.clear(argExprs[i])
		}
	}
	// Result taint: callee origins map back through this call's
	// arguments.
	var out uint64
	if sum.returns&taintSrc != 0 {
		out |= taintSrc
	}
	for i, t := range argTaint {
		if sum.returns&paramBit(i) != 0 {
			out |= t
		}
	}

	// The index.FromBlocks sink applies to module calls too.
	e.indexCtorSink(call, argTaint)
	return out
}

// externalCall models the small set of stdlib behaviors the analysis
// understands; everything else returns clean values.
func (e *taintEngine) externalCall(call *ast.CallExpr, fn *types.Func, sig *types.Signature, argExprs []ast.Expr, argTaint []uint64) uint64 {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	name := fn.Name()

	switch {
	case pkgPath == "os" && name == "ReadFile":
		return taintSrc
	case pkgPath == "io" && (name == "ReadAll"):
		if len(argTaint) > 0 && argTaint[len(argTaint)-1] != 0 {
			return argTaint[len(argTaint)-1]
		}
		return 0
	case pkgPath == "io" && (name == "ReadFull" || name == "ReadAtLeast"):
		// Reading from a tainted (or file) reader taints the buffer.
		if len(call.Args) >= 2 && e.readerIsUntrusted(call.Args[0], argTaint[0]) {
			if obj := rootObj(e.info, call.Args[1]); obj != nil {
				e.state[obj] |= taintSrc
			}
		}
		return 0
	}

	if sig.Recv() != nil {
		recvT := sig.Recv().Type()
		switch name {
		case "Read", "ReadAt":
			// Method reads fill their buffer from the receiver.
			if len(call.Args) >= 1 && len(argExprs) > 0 && argExprs[0] != nil &&
				e.readerIsUntrusted(argExprs[0], argTaint[0]) {
				if obj := rootObj(e.info, call.Args[0]); obj != nil {
					e.state[obj] |= taintSrc
				}
			}
			if name == "ReadAt" && len(call.Args) == 2 {
				if t := e.eval(call.Args[1]); t != 0 {
					e.sink(call.Args[1].Pos(), t, "a ReadAt offset")
				}
			}
			return 0
		case "Uint16", "Uint32", "Uint64":
			// binary.ByteOrder decoding: integers decoded from tainted
			// bytes are tainted.
			if isNamedOrIface(recvT, "encoding/binary") && len(argTaint) == 2 {
				return argTaint[1]
			}
		}
	}
	return 0
}

// readerIsUntrusted reports whether reading from this value yields
// hostile bytes: the value is already tainted, or it is an *os.File.
func (e *taintEngine) readerIsUntrusted(x ast.Expr, taint uint64) bool {
	if taint != 0 {
		return true
	}
	t := typeOf(e.info, x)
	return t != nil && isNamed(t, "os", "File")
}

// isNamedOrIface reports whether t is declared in pkgPath (covering
// both binary.littleEndian concrete receivers and the ByteOrder
// interface).
func isNamedOrIface(t types.Type, pkgPath string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// indexCtorSink flags tainted arguments to the index constructor that
// reassembles stored blocks: a hostile block layout becomes a hostile
// index.
func (e *taintEngine) indexCtorSink(call *ast.CallExpr, argTaint []uint64) {
	fn := calleeFunc(e.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "repro/internal/index" {
		return
	}
	if fn.Name() != "FromBlocks" {
		return
	}
	for i, t := range argTaint {
		if t != 0 {
			e.sink(call.Pos(), t, "index.FromBlocks argument "+fmt.Sprint(i))
		}
	}
}

// assign writes taint to an lvalue: strong update for plain locals,
// weak (union) update through selectors, indexes, and dereferences.
func (e *taintEngine) assign(lhs ast.Expr, val uint64) {
	// Error values never carry taint: an error's bytes are diagnostic
	// text, not offsets — and every `return nil, err` after a tainted
	// read would otherwise mark the whole function's returns untrusted.
	if isErrorType(typeOf(e.info, lhs)) {
		val = 0
	}
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return
		}
		obj := e.info.Defs[v]
		if obj == nil {
			obj = e.info.Uses[v]
		}
		if obj != nil {
			e.state[obj] = val
		}
	default:
		e.eval(lhs)
		if obj := rootObj(e.info, lhs); obj != nil {
			e.state[obj] |= val
		}
	}
}

// terminates reports whether the statement list always leaves the
// enclosing scope (return, branch, panic, os.Exit).
func terminates(info *types.Info, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "os" && fn.Name() == "Exit" {
				return true
			}
		}
	}
	return false
}

// leaf updates taint state for one statement walkStmt does not take
// apart.
func (e *taintEngine) leaf(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		if len(v.Lhs) > 1 && len(v.Rhs) == 1 {
			val := e.eval(v.Rhs[0])
			for _, lhs := range v.Lhs {
				e.assign(lhs, val)
			}
			return
		}
		for i, lhs := range v.Lhs {
			if i < len(v.Rhs) {
				e.assign(lhs, e.eval(v.Rhs[i]))
			}
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nameID := range vs.Names {
					var val uint64
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						val = e.eval(vs.Values[0])
					} else if i < len(vs.Values) {
						val = e.eval(vs.Values[i])
					}
					if obj := e.info.Defs[nameID]; obj != nil {
						e.state[obj] = val
					}
				}
			}
		}
	case *ast.ExprStmt:
		e.eval(v.X)
	case *ast.ReturnStmt:
		var t uint64
		for _, r := range v.Results {
			t |= e.eval(r)
		}
		if len(v.Results) == 0 {
			// Named results: union their current state.
			if res := e.fi.Decl.Type.Results; res != nil {
				for _, field := range res.List {
					for _, name := range field.Names {
						if obj := e.info.Defs[name]; obj != nil {
							t |= e.state[obj]
						}
					}
				}
			}
		}
		if t&^e.sum.returns != 0 {
			e.sum.returns |= t
			e.grew = true
		}
	case *ast.DeferStmt:
		e.eval(v.Call)
	case *ast.GoStmt:
		e.eval(v.Call)
	case *ast.SendStmt:
		e.eval(v.Chan)
		e.eval(v.Value)
	case *ast.IncDecStmt:
		e.eval(v.X)
	}
}

func (e *taintEngine) expr(x ast.Expr) { e.eval(x) }

// loop walks loop bodies twice, so taint introduced late in the body
// reaches uses earlier in the next iteration.
func (e *taintEngine) loop(body func()) {
	body()
	body()
}

func (e *taintEngine) rangeHead(v *ast.RangeStmt) func() {
	xTaint := e.eval(v.X)
	keyTaint := uint64(0)
	if t := typeOf(e.info, v.X); t != nil {
		switch deref(t).Underlying().(type) {
		case *types.Map, *types.Basic: // map keys / string bytes carry the taint
			keyTaint = xTaint
		}
	}
	if v.Key != nil {
		e.assign(v.Key, keyTaint)
	}
	if v.Value != nil {
		e.assign(v.Value, xTaint)
	}
	return nil
}

// ifDone is guard clearing: a range check whose body bails out
// blesses the checked integers — but never byte buffers; only a
// validator clears those.
func (e *taintEngine) ifDone(v *ast.IfStmt) {
	if !terminates(e.info, v.Body.List) {
		return
	}
	ast.Inspect(v.Cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := e.info.Uses[id]
		if obj == nil || e.state[obj] == 0 {
			return true
		}
		if isIntegerish(obj.Type()) {
			e.state[obj] = 0
		}
		return true
	})
}

// isErrorType reports whether t is the universe error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
