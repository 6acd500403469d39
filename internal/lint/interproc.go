package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is riolint's interprocedural layer: a module-wide call graph
// over the already-type-checked packages plus per-function dataflow
// summaries. The per-function analyzers (maporder, seedflow, ...) see one
// body at a time; the summaries let bufalias reason about
// what happens to a value after it is passed somewhere else — which
// parameters escape to the heap, a channel, or a goroutine, which returns
// alias which parameters, and whether a function hands back a pooled
// buffer. Everything stays stdlib-only: the graph is built from
// types.Info the Loader already produced.

// Flow classifies how a value leaves a function.
type Flow uint8

const (
	// FlowReturn: the value (or an alias of it) is returned.
	FlowReturn Flow = 1 << iota
	// FlowHeap: the value is stored somewhere that outlives the call —
	// a package-level variable, a field of a pointer, a captured
	// container.
	FlowHeap
	// FlowSend: the value is sent on a channel.
	FlowSend
	// FlowGo: the value is handed to a new goroutine.
	FlowGo
)

func (f Flow) String() string {
	switch {
	case f&FlowHeap != 0:
		return "stored"
	case f&FlowSend != 0:
		return "sent on a channel"
	case f&FlowGo != 0:
		return "handed to a goroutine"
	case f&FlowReturn != 0:
		return "returned"
	}
	return "kept"
}

// A Summary is one function's externally visible dataflow: for each
// regular parameter, how it escapes; and whether the function's results
// can alias a pooled buffer (bufalias's root set).
type Summary struct {
	Params      []Flow
	ReturnsRoot bool
}

func (s *Summary) equal(o *Summary) bool {
	if s.ReturnsRoot != o.ReturnsRoot || len(s.Params) != len(o.Params) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// A FuncNode is one function (or method) with a body in the analyzed
// packages.
type FuncNode struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []*types.Func // static callees inside the analyzed packages
}

// A Program is the interprocedural view of one Run: every function with
// a body, its call graph, and (once build has run) its summaries and
// escape events. Analyzers share it through Pass.Prog.
type Program struct {
	fset  *token.FileSet
	funcs map[*types.Func]*FuncNode
	order []*FuncNode // deterministic: sorted by source position

	built     bool
	summaries map[*types.Func]*Summary
	events    map[*types.Func][]escapeEvent
	reach     map[string]map[*types.Func]bool
	// scratchUse: the fs scratch fields each function names (bufalias's
	// use-after-refill rule), built on first use.
	scratchUse map[*types.Func][]string
}

// An escapeEvent is one place a tracked value leaves its function. The
// taint bitset says which values: bits 0..62 are parameter indices, bit
// 63 (rootBit) marks a pooled-buffer alias.
type escapeEvent struct {
	pos   token.Pos
	flow  Flow
	taint uint64
	desc  string
	// intoPool marks a heap store whose target is itself a pool field:
	// the pool's own bookkeeping (get/put resizing blockPool, refilling
	// readBuf) returns an alias to the pool rather than leaking it.
	intoPool bool
}

const rootBit = 63

func buildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	pr := &Program{
		fset:  fset,
		funcs: make(map[*types.Func]*FuncNode),
		reach: make(map[string]map[*types.Func]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				seen := make(map[*types.Func]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := staticCallee(pkg.Info, call); callee != nil && !seen[callee] {
						seen[callee] = true
						node.Callees = append(node.Callees, callee)
					}
					return true
				})
				sort.Slice(node.Callees, func(i, j int) bool {
					return node.Callees[i].FullName() < node.Callees[j].FullName()
				})
				pr.funcs[obj] = node
				pr.order = append(pr.order, node)
			}
		}
	}
	sort.Slice(pr.order, func(i, j int) bool {
		pi, pj := fset.Position(pr.order[i].Decl.Pos()), fset.Position(pr.order[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return pr
}

// staticCallee resolves a call to the *types.Func it invokes, or nil for
// builtins, conversions, function values, and interface calls with no
// static target.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: wire.DecodeRequest.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// build computes every function's summary to a fixpoint, then records
// the final escape events. Summaries only grow (flows accumulate), so
// iteration terminates; the bound is a backstop.
func (pr *Program) build() {
	if pr.built {
		return
	}
	pr.built = true
	pr.summaries = make(map[*types.Func]*Summary, len(pr.order))
	for _, n := range pr.order {
		sig := n.Obj.Type().(*types.Signature)
		pr.summaries[n.Obj] = &Summary{Params: make([]Flow, sig.Params().Len())}
	}
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, n := range pr.order {
			_, sum := pr.analyzeFunc(n)
			if !pr.summaries[n.Obj].equal(sum) {
				pr.summaries[n.Obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	pr.events = make(map[*types.Func][]escapeEvent, len(pr.order))
	for _, n := range pr.order {
		evs, _ := pr.analyzeFunc(n)
		pr.events[n.Obj] = evs
	}
}

// reaches reports whether fn is, or can (transitively) call through
// static calls inside the analyzed packages, a function that class calls
// a hit; the walk does not look inside a function class says to stop at.
// key names the predicate for the memo: the same key must always come
// with the same class.
func (pr *Program) reaches(fn *types.Func, key string, class func(*types.Func) (hit, stop bool)) bool {
	memo := pr.reach[key]
	if memo == nil {
		memo = make(map[*types.Func]bool)
		pr.reach[key] = memo
	}
	// A "no" below a cut cycle may turn "yes" once the node it was cut at
	// is fully explored, so inside the walk only "yes" is memoized; when
	// the whole walk finds nothing, nothing it visited reaches a hit.
	seen := make(map[*types.Func]bool)
	var visit func(f *types.Func) bool
	visit = func(f *types.Func) bool {
		if done, ok := memo[f]; ok {
			return done
		}
		hit, stop := class(f)
		if hit {
			memo[f] = true
			return true
		}
		if seen[f] {
			return false
		}
		seen[f] = true
		if node := pr.funcs[f]; node != nil && !stop {
			for _, c := range node.Callees {
				if visit(c) {
					memo[f] = true
					return true
				}
			}
		}
		return false
	}
	if visit(fn) {
		return true
	}
	for f := range seen {
		memo[f] = false
	}
	return false
}

// analyzeFunc runs the taint walk over one function body: local taints
// to a fixpoint, then the resulting escape events and summary.
func (pr *Program) analyzeFunc(node *FuncNode) ([]escapeEvent, *Summary) {
	info := node.Pkg.Info
	st := &taintState{
		pr:       pr,
		info:     info,
		paramIdx: make(map[types.Object]int),
		vars:     make(map[types.Object]uint64),
		events:   make(map[string]*escapeEvent),
	}
	idx := 0
	if node.Decl.Type.Params != nil {
		for _, field := range node.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					st.paramIdx[obj] = idx
				}
				idx++
			}
		}
	}
	st.sum = &Summary{Params: make([]Flow, idx)}
	if node.Decl.Recv != nil && len(node.Decl.Recv.List) == 1 {
		field := node.Decl.Recv.List[0]
		if len(field.Names) == 1 {
			st.recvObj = info.Defs[field.Names[0]]
			if t := info.TypeOf(field.Type); t != nil {
				_, st.recvPtr = t.Underlying().(*types.Pointer)
			}
		}
	}
	if node.Decl.Type.Results != nil {
		for _, field := range node.Decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					st.resultObjs = append(st.resultObjs, obj)
				}
			}
		}
	}
	st.bodyPos, st.bodyEnd = node.Decl.Body.Pos(), node.Decl.Body.End()
	// The parameters of a view callback are pooled aliases from the start.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			_, lits := viewLits(info, call)
			for _, lit := range lits {
				st.viewLits = append(st.viewLits, lit)
				for _, id := range viewParams(info, lit) {
					st.setVar(st.objOf(id), 1<<rootBit)
				}
			}
		}
		return true
	})
	for i := 0; i < 16; i++ {
		st.changed = false
		st.walk(node.Decl.Body)
		if !st.changed {
			break
		}
	}
	evs := make([]escapeEvent, 0, len(st.events))
	for _, e := range st.events {
		evs = append(evs, *e)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pos != evs[j].pos {
			return evs[i].pos < evs[j].pos
		}
		if evs[i].flow != evs[j].flow {
			return evs[i].flow < evs[j].flow
		}
		return evs[i].desc < evs[j].desc
	})
	return evs, st.sum
}

// taintState is the per-function walk: which locals alias a parameter or
// a pooled buffer, accumulated flow-insensitively to a fixpoint.
type taintState struct {
	pr         *Program
	info       *types.Info
	paramIdx   map[types.Object]int
	recvObj    types.Object
	recvPtr    bool
	resultObjs []types.Object
	vars       map[types.Object]uint64
	sum        *Summary
	events     map[string]*escapeEvent
	bodyPos    token.Pos
	bodyEnd    token.Pos
	changed    bool
	// viewLits are the body's view callbacks (bufalias's viewCallbacks): a
	// view stored in a variable declared outside its literal outlives the
	// one call it is valid for.
	viewLits []*ast.FuncLit
}

func (st *taintState) objOf(id *ast.Ident) types.Object {
	return st.info.ObjectOf(id)
}

func (st *taintState) setVar(obj types.Object, t uint64) {
	if obj == nil || t == 0 {
		return
	}
	if st.vars[obj]&t != t {
		st.vars[obj] |= t
		st.changed = true
	}
}

// escape records that a value with taint t leaves the function via flow.
func (st *taintState) escape(pos token.Pos, flow Flow, t uint64, desc string) {
	st.escapeInto(pos, flow, t, desc, false)
}

func (st *taintState) escapeInto(pos token.Pos, flow Flow, t uint64, desc string, intoPool bool) {
	if t == 0 {
		return
	}
	for i := range st.sum.Params {
		if i < rootBit && t&(1<<uint(i)) != 0 && st.sum.Params[i]&flow != flow {
			st.sum.Params[i] |= flow
			st.changed = true
		}
	}
	if flow == FlowReturn && t&(1<<rootBit) != 0 && !st.sum.ReturnsRoot {
		st.sum.ReturnsRoot = true
		st.changed = true
	}
	key := fmt.Sprintf("%d|%d|%s", pos, flow, desc)
	ev := st.events[key]
	if ev == nil {
		ev = &escapeEvent{pos: pos, flow: flow, desc: desc, intoPool: intoPool}
		st.events[key] = ev
	}
	ev.taint |= t
}

// isPoolTarget reports whether a store destination is itself one of the
// pooled-buffer fields (blockPool, readBuf, ...): the pool's own
// bookkeeping, not a leak.
func (st *taintState) isPoolTarget(lhs ast.Expr) bool {
	switch l := unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return isPoolField(l.Sel.Name)
	case *ast.IndexExpr:
		if sel, ok := unparen(l.X).(*ast.SelectorExpr); ok {
			return isPoolField(sel.Sel.Name)
		}
	}
	return false
}

func (st *taintState) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			st.assign(s)
		case *ast.RangeStmt:
			if t := st.taintOf(s.X); t != 0 && s.Value != nil {
				if id, ok := unparen(s.Value).(*ast.Ident); ok {
					st.setVar(st.objOf(id), t)
				}
			}
		case *ast.SendStmt:
			st.escape(s.Pos(), FlowSend, st.taintOf(s.Value), "sent on a channel")
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				st.escape(s.Pos(), FlowReturn, st.taintOf(r), "returned")
			}
			for _, obj := range st.resultObjs {
				st.escape(s.Pos(), FlowReturn, st.vars[obj], "returned")
			}
		case *ast.GoStmt:
			t := st.taintOf(s.Call.Fun)
			for _, a := range s.Call.Args {
				t |= st.taintOf(a)
			}
			st.escape(s.Pos(), FlowGo, t, "handed to a goroutine")
		case *ast.DeferStmt:
			// A defer runs before return: its args don't outlive the
			// function, so only the callee's own retention matters.
			st.callEffects(s.Call)
		case *ast.CallExpr:
			st.callEffects(s)
		}
		return true
	})
}

// localObj reports whether obj is function-local state (declared inside
// the body, a parameter variable, or a by-value receiver): stores into
// it stay inside the frame.
func (st *taintState) localObj(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if obj.Pos() >= st.bodyPos && obj.Pos() < st.bodyEnd {
		return true
	}
	if _, ok := st.paramIdx[obj]; ok {
		return true
	}
	return obj == st.recvObj && !st.recvPtr
}

func (st *taintState) assign(s *ast.AssignStmt) {
	n := len(s.Lhs)
	rhsT := make([]uint64, n)
	switch {
	case len(s.Rhs) == n:
		for i := range s.Rhs {
			rhsT[i] = st.taintOf(s.Rhs[i])
		}
	case len(s.Rhs) == 1:
		// Multi-value call/comma-ok: over-approximate with the union.
		t := st.taintOf(s.Rhs[0])
		for i := range rhsT {
			rhsT[i] = t
		}
	}
	for i, lhs := range s.Lhs {
		t := rhsT[i]
		if t == 0 {
			continue
		}
		switch l := unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			obj := st.objOf(l)
			if obj == nil {
				continue
			}
			if st.localObj(obj) {
				st.setVar(obj, t)
				st.viewStore(lhs, obj, t)
			} else {
				st.escape(lhs.Pos(), FlowHeap, t, "stored in package-level "+l.Name)
			}
		default:
			// Store through a selector/index/star. Storing into a local
			// container keeps the alias in the frame (the container now
			// carries the taint, and escapes if it later escapes); a
			// store through a pointer-like parameter, a pointer
			// receiver, or any non-local base outlives the call.
			base := baseIdent(lhs)
			var obj types.Object
			if base != nil {
				obj = st.objOf(base)
			}
			heapStore := func() {
				st.escapeInto(lhs.Pos(), FlowHeap, t, "stored in "+types.ExprString(lhs), st.isPoolTarget(lhs))
			}
			switch {
			case obj == nil:
				heapStore()
			case isParam(st.paramIdx, obj):
				if pointerish(obj.Type()) {
					heapStore()
				} else {
					st.setVar(obj, t)
				}
			case st.localObj(obj):
				st.setVar(obj, t)
			default:
				heapStore()
			}
		}
	}
}

// outlivesView reports whether a store at pos into obj carries a view out
// of the callback it was handed to: pos lies inside a view callback and
// obj is declared outside it.
func (st *taintState) outlivesView(pos token.Pos, obj types.Object) bool {
	for _, lit := range st.viewLits {
		if lit.Pos() <= pos && pos < lit.End() && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			return true
		}
	}
	return false
}

// viewStore records a pooled alias stored, inside a view callback, in a
// local of the enclosing function: the local stays in the frame, but the
// view dies with the callback's return.
func (st *taintState) viewStore(lhs ast.Expr, obj types.Object, t uint64) {
	if t&(1<<rootBit) != 0 && st.outlivesView(lhs.Pos(), obj) {
		st.escape(lhs.Pos(), FlowHeap, 1<<rootBit, "stored in "+types.ExprString(lhs)+", which outlives the callback it was handed to")
	}
}

// callEffects applies the callee's summary to tainted arguments: passing
// a tracked value to a function that stores/sends/spawns it is an escape
// at the call site.
func (st *taintState) callEffects(call *ast.CallExpr) {
	callee := staticCallee(st.info, call)
	if callee == nil {
		return
	}
	if releaseFuncs[callee.Name()] {
		return // sanctioned pool release, not an escape
	}
	sum := st.pr.summaries[callee]
	if sum == nil {
		return // outside the program: assumed non-retaining
	}
	sig := callee.Type().(*types.Signature)
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= len(sum.Params) {
			break
		}
		fl := sum.Params[pi]
		if fl == 0 {
			continue
		}
		t := st.taintOf(arg)
		if t == 0 {
			continue
		}
		name := callee.Name()
		if fl&FlowHeap != 0 {
			st.escape(arg.Pos(), FlowHeap, t, "passed to "+name+", which retains it")
		}
		if fl&FlowSend != 0 {
			st.escape(arg.Pos(), FlowSend, t, "passed to "+name+", which sends it on a channel")
		}
		if fl&FlowGo != 0 {
			st.escape(arg.Pos(), FlowGo, t, "passed to "+name+", which hands it to a goroutine")
		}
	}
}

// taintOf computes the taint bitset of an expression: which parameters
// and pool roots it may alias.
func (st *taintState) taintOf(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	if t := st.info.TypeOf(e); t != nil && !refLike(t) {
		return 0 // bytes, ints, strings: copies, not aliases
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := st.objOf(x)
		if obj == nil {
			return 0
		}
		t := st.vars[obj]
		if pi, ok := st.paramIdx[obj]; ok && pi < rootBit {
			t |= 1 << uint(pi)
		}
		return t
	case *ast.SelectorExpr:
		if st.isPoolRead(x) {
			return 1 << rootBit
		}
		return st.taintOf(x.X)
	case *ast.CallExpr:
		return st.callResultTaint(x)
	case *ast.IndexExpr:
		return st.taintOf(x.X)
	case *ast.SliceExpr:
		return st.taintOf(x.X)
	case *ast.StarExpr:
		return st.taintOf(x.X)
	case *ast.ParenExpr:
		return st.taintOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return st.taintOf(x.X)
		}
		return 0
	case *ast.TypeAssertExpr:
		return st.taintOf(x.X)
	case *ast.CompositeLit:
		var t uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= st.taintOf(kv.Value)
			} else {
				t |= st.taintOf(el)
			}
		}
		return t
	case *ast.FuncLit:
		// A closure carries every tracked value it captures.
		var t uint64
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := st.objOf(id); obj != nil {
					t |= st.vars[obj]
					if pi, ok := st.paramIdx[obj]; ok && pi < rootBit {
						t |= 1 << uint(pi)
					}
				}
			}
			return true
		})
		return t
	}
	return 0
}

func (st *taintState) callResultTaint(call *ast.CallExpr) uint64 {
	if tv, ok := st.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: aliasing passes through ([]byte(x), Frame(x)).
		if len(call.Args) == 1 {
			return st.taintOf(call.Args[0])
		}
		return 0
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.objOf(id).(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				var t uint64
				for i, a := range call.Args {
					if i > 0 && call.Ellipsis.IsValid() && !sliceOfRefs(st.info.TypeOf(a)) {
						continue // append(dst, src...) copies plain bytes out of src: no alias
					}
					t |= st.taintOf(a)
				}
				return t
			}
			return 0 // len, cap, make, copy, min, max: no aliasing out
		}
	}
	callee := staticCallee(st.info, call)
	if callee == nil {
		return 0
	}
	var t uint64
	if aliasResults[callee.Name()] {
		for _, a := range call.Args {
			t |= st.taintOf(a)
		}
	}
	sum := st.pr.summaries[callee]
	if sum == nil {
		return t
	}
	if sum.ReturnsRoot {
		t |= 1 << rootBit
	}
	sig := callee.Type().(*types.Signature)
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi < len(sum.Params) && sum.Params[pi]&FlowReturn != 0 {
			t |= st.taintOf(arg)
		}
	}
	return t
}

// sliceOfRefs reports whether t is a slice whose elements can themselves
// alias storage (so spreading it into an append carries the aliases
// along); a []byte or string spread only copies values.
func sliceOfRefs(t types.Type) bool {
	if t == nil {
		return true
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && refLike(sl.Elem())
}

// isPoolRead reports whether sel reads one of the pooled-buffer roots
// (kernel scratch, fs block pool, fs readBuf) as a struct field.
func (st *taintState) isPoolRead(sel *ast.SelectorExpr) bool {
	if !isPoolField(sel.Sel.Name) {
		return false
	}
	s, ok := st.info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// refLike reports whether values of type t can alias underlying storage:
// assigning one around propagates the alias rather than copying bytes.
func refLike(t types.Type) bool {
	return refLike1(t, make(map[types.Type]bool))
}

func refLike1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Array:
		return refLike1(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike1(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refLike1(u.At(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	// Pointer, slice, map, chan, func, interface.
	return true
}

func isParam(paramIdx map[types.Object]int, obj types.Object) bool {
	_, ok := paramIdx[obj]
	return ok
}

// pointerish reports whether a value of type t shares storage with its
// origin (so stores through it outlive a by-value copy).
func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}
