package lint

// guardedby checks declared lock discipline: a struct field annotated
//
//	items map[string]*entry // guardedby: mu
//
// may only be read or written while the named mutex of the same
// struct value is held. Held regions are tracked lexically —
// x.mu.Lock() opens one, x.mu.Unlock() closes it, defer x.mu.Unlock()
// holds to function end, RLock counts as held — and the check is
// interprocedural: a helper that accesses a guarded field of its
// receiver without locking publishes a "requires lock" summary, and
// every call site must then be inside a held region (or pass a freshly
// constructed, not-yet-shared value). Constructors are exempt the same
// way: accesses to a struct the function itself created never require
// the lock.
//
// Gaps, deliberately: function literals are not analyzed (goroutine
// bodies normally use the locked accessors), and a requiring function
// with no call sites at all stays silent rather than guessing about
// its callers.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// AnalyzerGuardedBy is the lock-discipline analyzer.
var AnalyzerGuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated `// guardedby: mu` are only touched while that mutex is held (DESIGN.md §8)",
	Run:  runGuardedBy,
}

// guardKey identifies one annotated field.
type guardKey struct {
	pkg   string
	typ   string
	field string
}

// lockReq is one published requirement: parameter slot must have
// <rel> held at every call site (rel is the path from the argument to
// the mutex, e.g. ".mu" or ".pool.mu").
type lockReq struct {
	slot int
	rel  string
	desc string // guarded field, for messages
}

// argInfo is one call-site argument in parameter-slot order.
type argInfo struct {
	repr   string // canonical expression text, "" if not trackable
	slot   int    // caller parameter slot of its root, -1 otherwise
	exempt bool   // root object was constructed in the caller
}

// callRecord is one direct module call with its caller-side context.
type callRecord struct {
	callee FuncKey
	pos    token.Pos
	args   []argInfo
	held   map[string]bool
}

type guardState struct {
	pass    *Pass
	mod     *Module
	guards  map[guardKey]string // field -> mutex name
	reqs    map[FuncKey][]lockReq
	calls   map[FuncKey][]callRecord
	direct  []Diagnostic
	violMsg map[string]bool
}

func runGuardedBy(pass *Pass) {
	mod := pass.Module()
	st := &guardState{
		pass:    pass,
		mod:     mod,
		guards:  map[guardKey]string{},
		reqs:    map[FuncKey][]lockReq{},
		calls:   map[FuncKey][]callRecord{},
		violMsg: map[string]bool{},
	}
	st.collectGuards()
	if len(st.guards) == 0 {
		return
	}
	for _, fi := range mod.Funcs {
		st.analyzeFunc(fi)
	}

	// Push requirements up the call graph to a fixpoint, then report
	// the call sites that satisfy none of the outs.
	mod.solve(func(fi *FuncInfo) bool { return st.propagate(fi.Key, nil) })
	var viols []Diagnostic
	for _, key := range mod.Keys {
		st.propagate(key, &viols)
	}
	viols = append(viols, st.direct...)
	seen := map[string]bool{}
	for _, d := range viols {
		k := fmt.Sprint(d.Pos, d.Message)
		if seen[k] {
			continue
		}
		seen[k] = true
		*st.pass.diags = append(*st.pass.diags, d)
	}
}

// collectGuards parses `// guardedby: <mutex>` field annotations and
// validates that the named mutex exists on the same struct.
func (st *guardState) collectGuards() {
	for _, pkg := range st.pass.Pkgs {
		for _, f := range st.pass.Files(pkg) {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				styp, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				fieldTypes := map[string]ast.Expr{}
				for _, field := range styp.Fields.List {
					for _, name := range field.Names {
						fieldTypes[name.Name] = field.Type
					}
				}
				for _, field := range styp.Fields.List {
					mu := guardAnnotation(field)
					if mu == "" {
						continue
					}
					muType, ok := fieldTypes[mu]
					if !ok || !isMutexType(typeOf(pkg.Info, muType)) {
						st.pass.Reportf(field.Pos(),
							"guardedby: %q is not a sync.Mutex/RWMutex field of %s", mu, ts.Name.Name)
						continue
					}
					for _, name := range field.Names {
						st.guards[guardKey{pkg.Path, ts.Name.Name, name.Name}] = mu
					}
				}
				return true
			})
		}
	}
}

// guardAnnotation extracts the mutex name from a field's trailing or
// preceding comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "guardedby:"); ok {
				rest = strings.TrimSpace(rest)
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					rest = rest[:i]
				}
				return rest
			}
		}
	}
	return ""
}

func isMutexType(t types.Type) bool {
	return t != nil && (isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex"))
}

// exprRepr renders a lockable expression canonically: "s", "s.pool",
// "rt". Non-path expressions (map index, call result) return "".
func exprRepr(x ast.Expr) string {
	switch v := ast.Unparen(x).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprRepr(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.StarExpr:
		return exprRepr(v.X)
	}
	return ""
}

// guardWalker tracks held mutexes through one function body.
type guardWalker struct {
	st     *guardState
	fi     *FuncInfo
	info   *types.Info
	held   map[string]bool
	exempt map[types.Object]bool
}

func (st *guardState) analyzeFunc(fi *FuncInfo) {
	w := &guardWalker{
		st: st, fi: fi, info: fi.Pkg.Info,
		held:   map[string]bool{},
		exempt: map[types.Object]bool{},
	}
	walkStmt(w, fi.Decl.Body)
}

// lockCall classifies a sync mutex method call, returning the lock
// repr ("s.mu") and whether it acquires.
func (w *guardWalker) lockCall(call *ast.CallExpr) (repr string, acquire, release bool) {
	fn := calleeFunc(w.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return exprRepr(sel.X), true, false
	case "Unlock", "RUnlock":
		return exprRepr(sel.X), false, true
	}
	return "", false, false
}

// access checks one selector expression against the annotations.
func (w *guardWalker) access(sel *ast.SelectorExpr) {
	s := w.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	named, ok := deref(s.Recv()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	key := guardKey{named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name}
	mu, guarded := w.st.guards[key]
	if !guarded {
		return
	}
	base := exprRepr(sel.X)
	if base != "" && w.held[base+"."+mu] {
		return
	}
	root := rootObj(w.info, sel.X)
	if root != nil && w.exempt[root] {
		return
	}
	desc := named.Obj().Name() + "." + sel.Sel.Name
	if root != nil {
		if slot, isParam := w.fi.Params[root]; isParam && base != "" {
			rootName, _, _ := strings.Cut(base, ".")
			rel := strings.TrimPrefix(base, rootName) + "." + mu
			w.st.addReq(w.fi.Key, lockReq{slot: slot, rel: rel, desc: desc})
			return
		}
	}
	holder := mu
	if base != "" {
		holder = base + "." + mu
	}
	w.st.direct = append(w.st.direct, Diagnostic{
		Analyzer: w.st.pass.Analyzer.Name,
		Pos:      w.st.pass.Fset.Position(sel.Pos()),
		Message: fmt.Sprintf("%s is guarded by %s but accessed without holding %s (DESIGN.md §8)",
			desc, mu, holder),
	})
}

// addReq adds r to fn's requirements and reports whether it is new.
func (st *guardState) addReq(fn FuncKey, r lockReq) bool {
	if slices.Contains(st.reqs[fn], r) {
		return false
	}
	st.reqs[fn] = append(st.reqs[fn], r)
	return true
}

// recordCall snapshots caller context at a direct module call.
func (w *guardWalker) recordCall(call *ast.CallExpr) {
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	key := KeyOf(fn)
	if _, inModule := w.st.mod.Funcs[key]; !inModule {
		return
	}
	argExprs := effectiveArgs(call, fn.Type().(*types.Signature))
	args := make([]argInfo, len(argExprs))
	for i, a := range argExprs {
		if a == nil {
			args[i] = argInfo{slot: -1}
			continue
		}
		repr := exprRepr(a)
		slot := -1
		exempt := false
		if root := rootObj(w.info, a); root != nil {
			if s, ok := w.fi.Params[root]; ok {
				slot = s
			}
			exempt = w.exempt[root]
		}
		args[i] = argInfo{repr: repr, slot: slot, exempt: exempt}
	}
	held := make(map[string]bool, len(w.held))
	for k, v := range w.held {
		held[k] = v
	}
	w.st.calls[w.fi.Key] = append(w.st.calls[w.fi.Key], callRecord{
		callee: key, pos: call.Pos(), args: args, held: held,
	})
}

// scan processes every expression node of one statement, shallowly:
// lock transitions, guarded accesses, call records.
func (w *guardWalker) scan(n ast.Node, inDefer bool) {
	if n == nil {
		return
	}
	inspectShallow(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.CallExpr:
			if repr, acquire, release := w.lockCall(v); repr != "" {
				switch {
				case acquire:
					w.held[repr] = true
				case release && !inDefer:
					delete(w.held, repr)
				}
				return true
			}
			w.recordCall(v)
		case *ast.SelectorExpr:
			w.access(v)
		}
		return true
	})
}

// leaf marks constructions exempt, then scans the statement; a
// deferred Unlock holds its mutex to function end.
func (w *guardWalker) leaf(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		// Constructor exemption: freshly built values are unshared.
		for i, lhs := range v.Lhs {
			if i >= len(v.Rhs) {
				break
			}
			if isConstruction(v.Rhs[i]) {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := w.info.Defs[id]; obj != nil {
						w.exempt[obj] = true
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						construct := len(vs.Values) == 0 // var x T: zero value, unshared
						if i < len(vs.Values) && isConstruction(vs.Values[i]) {
							construct = true
						}
						if construct {
							if obj := w.info.Defs[name]; obj != nil {
								w.exempt[obj] = true
							}
						}
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.scan(v.Call, true)
		return
	}
	w.scan(s, false)
}

func (w *guardWalker) expr(x ast.Expr)    { w.scan(x, false) }
func (w *guardWalker) loop(body func())   { body() }
func (w *guardWalker) ifDone(*ast.IfStmt) {}

func (w *guardWalker) rangeHead(v *ast.RangeStmt) func() {
	w.scan(v.X, false)
	return nil
}

// isConstruction reports whether x builds a fresh value: T{...},
// &T{...}, or new(T).
func isConstruction(x ast.Expr) bool {
	switch v := ast.Unparen(x).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if v.Op.String() == "&" {
			_, ok := ast.Unparen(v.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// propagate walks caller's call sites against their callees'
// requirements. With viols == nil it only grows caller's requirements,
// reporting whether they grew; with viols set it collects the
// unsatisfiable call sites.
func (st *guardState) propagate(caller FuncKey, viols *[]Diagnostic) bool {
	grew := false
	for _, rec := range st.calls[caller] {
		for _, req := range st.reqs[rec.callee] {
			if req.slot >= len(rec.args) {
				continue
			}
			a := rec.args[req.slot]
			if a.exempt {
				continue
			}
			if a.repr != "" && rec.held[a.repr+req.rel] {
				continue
			}
			if a.slot >= 0 && a.repr != "" {
				// Argument roots in a caller parameter: push the
				// requirement up, unless its path would name one field
				// twice (x.next.walk() recursing would otherwise push
				// .next.mu, .next.next.mu, ... without end).
				rootName, _, _ := strings.Cut(a.repr, ".")
				rel := strings.TrimPrefix(a.repr, rootName) + req.rel
				if !repeatsField(rel) && st.addReq(caller, lockReq{slot: a.slot, rel: rel, desc: req.desc}) {
					grew = true
				}
				continue
			}
			if viols != nil {
				calleeName := string(rec.callee)
				if i := strings.LastIndexByte(calleeName, '.'); i >= 0 {
					calleeName = calleeName[i+1:]
				}
				*viols = append(*viols, Diagnostic{
					Analyzer: st.pass.Analyzer.Name,
					Pos:      st.pass.Fset.Position(rec.pos),
					Message: fmt.Sprintf("call to %s touches %s, which is guarded by %s%s, without holding it (DESIGN.md §8)",
						calleeName, req.desc, a.repr, req.rel),
				})
			}
		}
	}
	return grew
}

// repeatsField reports whether the selector path rel (".next.mu")
// names one field twice.
func repeatsField(rel string) bool {
	fields := strings.Split(rel, ".")
	slices.Sort(fields)
	return len(slices.Compact(fields)) < len(fields)
}
