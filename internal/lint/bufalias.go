package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Bufalias enforces the pooled-buffer aliasing discipline that gates the
// zero-copy serving path (ROADMAP "cache frame → wire frame with no
// intermediate copy"). The hot path hands out views of reused storage —
// kernel.scratchBytes returns a slice of the kernel's bulk buffer, the
// fs block pool, readBuf and the per-role image scratch (dirBuf, inoBuf,
// bmBuf, indBuf, outBuf) recycle block-sized buffers, and
// cache.ReadInto / kernel.StageOutInto / cache.ContentsAt fill a
// caller-owned destination — and every one of those views has a
// sanctioned window: it is valid until the next bulk op, the next
// read, the next fill of the same scratch, or the pool reuse. An alias
// that outlives the window is silent corruption (the buffer's bytes
// change under the holder), and the compiler cannot see it; with the
// interprocedural summaries riolint can.
//
// Rules, tracked through calls via the Program's summaries:
//
//   - A pooled alias (anything reaching kernel bulkBuf,
//     fs readBuf or image scratch, or the fs block pool, directly or
//     through a function that returns one) must not be stored in a
//     field, global, or other heap location, sent on a channel, or
//     handed to a goroutine.
//     Returning one is allowed — that propagates the window to the
//     caller, and the caller is tracked in turn.
//   - A request decoded in place from a pooled wire frame
//     (wire.DecodeRequestAliased) is a pooled alias too: its Data points
//     into the frame, so retaining it — a staged transaction op keeping
//     req.Data — needs a copy.
//   - putPooledBlock releases a block back to the pool; using the
//     released value afterwards (including releasing it twice) is a
//     use-after-free against the pool.
//   - An image of an fs scratch (scratchFields) is dead once anything
//     fills the same scratch again: using it after a call that can reach
//     such a fill — an inode-block image read after the next putInode —
//     is a finding. The fs roles nest (a directory image is held across
//     bmap, an indirect image across balloc) but each on its own scratch,
//     and this rule is what keeps it so.
//   - A directory scan hands its callback a dirent view whose name bytes
//     alias the directory image (viewCallbacks). The view is that call's
//     only: storing it, or anything sliced from it, in a variable declared
//     outside the callback keeps it past the scan's next block, and
//     reading it after a call that can image another directory block is a
//     use after refill like any other. string(d.name) is the copy.
//   - The Into-style entry points (ReadInto, StageOutInto, ContentsAt)
//     are the zero-copy contract surface: their destination parameters
//     must not escape at all, because callers will pass pooled response
//     buffers. The contract is checked at the function, so every future
//     implementation keeps it.
//
// Custody transfers that are correct by design (e.g. handing a pooled
// block to the async-write queue that releases it on drain) carry
// //riolint:bufalias <reason>.
var Bufalias = &Analyzer{
	Name:      "bufalias",
	Directive: "bufalias",
	Doc:       "pooled/frame-aliased buffers must not outlive their window: no heap stores, channel sends, goroutine hand-offs, or use after release",
	Run:       runBufalias,
}

// poolFields are the struct fields whose reads yield a pooled alias
// (with scratchFields: see isPoolField).
var poolFields = map[string]bool{
	"bulkBuf":   true, // kernel bulk scratch
	"blockPool": true, // fs recycled block buffers
	"frameBufs": true, // server recycled wire-frame buffers (zero-copy reads)
}

// scratchFields are the pooled fields with refill semantics: the fs
// buffers a block is read or imaged into, whose previous view dies the
// moment the same field is filled again. A function that names one of
// them is taken to fill it.
var scratchFields = map[string]bool{
	"readBuf": true, // readBlockSync's transfer buffer
	"dirBuf":  true, // image scratch: directory block (dirBlock)
	"inoBuf":  true, // image scratch: inode block (putInode)
	"bmBuf":   true, // image scratch: bitmap block (balloc)
	"indBuf":  true, // image scratch: indirect block (bmap, freeFileBlocks)
	"outBuf":  true, // image scratch: synchronous write-out
}

// isPoolField reports whether reading the named field yields a pooled
// alias.
func isPoolField(name string) bool { return poolFields[name] || scratchFields[name] }

// releaseFuncs return a pooled buffer to its pool: calling one is not an
// escape, and the argument is dead afterwards.
var releaseFuncs = map[string]bool{
	"putPooledBlock": true,
	"putFrameBuf":    true, // server frame pool release
	"ReleaseFrame":   true, // exported wrapper over putFrameBuf
}

// aliasResults are the functions whose result aliases their buffer
// arguments in a way no summary can see: wire's in-place request decoder
// parses through a cursor's methods, which the taint walk does not
// follow, yet the Request it returns points into the frame it was given.
// The result carries the arguments' taint, so a request decoded from a
// pooled frame is itself a pooled alias.
var aliasResults = map[string]bool{
	"DecodeRequestAliased": true,
}

// viewCallbacks are the functions that call a function-literal argument
// with a view of an fs scratch, by the scratch the view lives in: fs.dirScan
// parses each live slot of the directory image in dirBuf into a dirent view
// and passes it to its callback. The view reaches the callback through a
// function value, which the taint walk does not follow, so — like
// aliasResults — bufalias knows it by name: the reference-typed parameters
// of a literal passed to one of these are pooled aliases of that scratch
// for the length of one call.
var viewCallbacks = map[string]string{
	"dirScan": "dirBuf",
}

// viewLits lists the function literals that call passes to a viewCallbacks
// function, with the scratch their parameters view ("" and nil otherwise).
func viewLits(info *types.Info, call *ast.CallExpr) (string, []*ast.FuncLit) {
	callee := staticCallee(info, call)
	if callee == nil || viewCallbacks[callee.Name()] == "" {
		return "", nil
	}
	var lits []*ast.FuncLit
	for _, a := range call.Args {
		if lit, ok := unparen(a).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	return viewCallbacks[callee.Name()], lits
}

// viewParams lists the parameters of lit that can carry a view.
func viewParams(info *types.Info, lit *ast.FuncLit) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if name.Name != "_" && refLike(info.TypeOf(name)) {
				out = append(out, name)
			}
		}
	}
	return out
}

// intoContracts are the Into-style functions whose destination buffers
// must never escape (the zero-copy serving contract).
var intoContracts = map[string]bool{
	"ReadInto":     true,
	"StageOutInto": true,
	"ContentsAt":   true,
	"ReadDirect":   true, // cache frame -> caller buffer, one copy
	"ReadInoAt":    true, // fs/rio direct-read entry over ReadDirect
}

func runBufalias(p *Pass) {
	prog := p.Prog
	if prog == nil {
		return
	}
	prog.build()
	for _, node := range prog.order {
		if node.Pkg != p.Pkg {
			continue
		}
		for _, ev := range prog.events[node.Obj] {
			if ev.taint&(1<<rootBit) == 0 || ev.flow == FlowReturn || ev.intoPool {
				continue
			}
			p.Reportf(ev.pos,
				"pooled buffer %s: the alias outlives the pool's reuse window and its bytes will change underneath the holder; copy them, or annotate the sanctioned custody transfer",
				ev.desc)
		}
		checkUseAfterRelease(p, node)
		checkUseAfterRefill(p, prog, node)
		checkIntoContract(p, prog, node)
	}
}

// checkIntoContract verifies that an Into-style function's slice
// parameters do not escape: callers pass pooled response buffers as the
// destination, so any retention breaks the zero-copy window.
func checkIntoContract(p *Pass, prog *Program, node *FuncNode) {
	if !intoContracts[node.Obj.Name()] {
		return
	}
	sum := prog.summaries[node.Obj]
	if sum == nil {
		return
	}
	sig := node.Obj.Type().(*types.Signature)
	for i, fl := range sum.Params {
		fl &= FlowHeap | FlowSend | FlowGo // returning dst hands back what the caller had
		if fl == 0 || i >= sig.Params().Len() {
			continue
		}
		prm := sig.Params().At(i)
		if _, isSlice := prm.Type().Underlying().(*types.Slice); !isSlice {
			continue
		}
		p.Reportf(node.Decl.Name.Pos(),
			"%s must not retain its destination buffer, but parameter %s is %s; the zero-copy serving path passes pooled response buffers here",
			node.Obj.Name(), prm.Name(), fl)
	}
}

// checkUseAfterRelease flags reads of a buffer after it was handed back
// to the pool. Matching is textual (types.ExprString) so selector
// arguments like w.data are tracked too; a rebinding assignment to the
// released expression ends the tracking.
func checkUseAfterRelease(p *Pass, node *FuncNode) {
	type release struct {
		key  string
		end  token.Pos
		line int
	}
	var rels []release
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if callee := staticCallee(node.Pkg.Info, call); callee == nil || !releaseFuncs[callee.Name()] {
			return true
		}
		switch unparen(call.Args[0]).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			rels = append(rels, release{
				key:  types.ExprString(unparen(call.Args[0])),
				end:  call.End(),
				line: p.Fset.Position(call.Pos()).Line,
			})
		}
		return true
	})
	if len(rels) == 0 {
		return
	}
	// Positions that are assignment left-hand sides: a rebind, not a use.
	lhsPos := make(map[token.Pos]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				lhsPos[l.Pos()] = true
			}
		}
		return true
	})
	for _, r := range rels {
		var first ast.Expr
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			switch e.(type) {
			case *ast.Ident, *ast.SelectorExpr:
			default:
				return true
			}
			if e.Pos() <= r.end || types.ExprString(e) != r.key {
				return true
			}
			if first == nil || e.Pos() < first.Pos() {
				first = e
			}
			return true
		})
		if first == nil || lhsPos[first.Pos()] {
			continue // never used again, or rebound to a fresh buffer
		}
		p.Reportf(first.Pos(),
			"pooled buffer %s used after being released to the pool (released at line %d); the pool may already have handed it to another writer",
			r.key, r.line)
	}
}

// scratchNamed lists the scratchFields that n reads as struct fields,
// in the order they appear.
func scratchNamed(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !scratchFields[sel.Sel.Name] {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			out = append(out, sel.Sel.Name)
		}
		return true
	})
	return out
}

// fillsScratch reports whether calling fn can fill the named scratch:
// fn, or something it statically reaches, names the field.
func (pr *Program) fillsScratch(fn *types.Func, field string) bool {
	if pr.scratchUse == nil {
		pr.scratchUse = make(map[*types.Func][]string, len(pr.order))
		for _, node := range pr.order {
			pr.scratchUse[node.Obj] = scratchNamed(node.Pkg.Info, node.Decl.Body)
		}
	}
	return pr.reaches(fn, "scratch:"+field, func(f *types.Func) (hit, stop bool) {
		for _, name := range pr.scratchUse[f] {
			if name == field {
				return true, false
			}
		}
		return false, false
	})
}

// scratchOf names the scratches the value of e may be a view of: every
// scratch field e reads directly (f.image(&f.inoBuf, b)), and, for a call
// to a function that hands back a pooled alias, every scratch that
// function can fill (f.dirBlock(b), f.readBlockSync(n)).
func scratchOf(prog *Program, info *types.Info, e ast.Expr) []string {
	held := make(map[string]bool)
	for _, name := range scratchNamed(info, e) {
		held[name] = true
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(info, call)
		if sum := prog.summaries[callee]; callee == nil || sum == nil || !sum.ReturnsRoot {
			return true
		}
		for field := range scratchFields {
			if prog.fillsScratch(callee, field) {
				held[field] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(held))
	for field := range held {
		out = append(out, field)
	}
	sort.Strings(out)
	return out
}

// checkUseAfterRefill flags a local that views an fs scratch and is used
// after a call that can fill the same scratch again. Like the
// use-after-release check it works on source positions: the view is live
// from its binding to the local's next assignment, a refill poisons
// everything after the call, and a refill inside a loop that began after
// the binding poisons the whole loop (the next iteration reads what this
// one overwrote).
func checkUseAfterRefill(p *Pass, prog *Program, node *FuncNode) {
	info := node.Pkg.Info
	body := node.Decl.Body
	// Every assignment to a local, by object: a view's window ends at the
	// local's next binding.
	assigns := make(map[types.Object][]token.Pos)
	lhsPos := make(map[token.Pos]bool)
	type binding struct {
		obj     types.Object
		name    string
		end     token.Pos // end of the binding statement
		limit   token.Pos // where the local's scope ends
		scratch []string
	}
	var binds []binding
	var loops []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		case *ast.CallExpr:
			// A view callback's parameters are bound, to a view of the
			// scratch the scan images into, from the literal's opening
			// brace to its closing one.
			field, lits := viewLits(info, s)
			for _, lit := range lits {
				for _, id := range viewParams(info, lit) {
					if obj := info.ObjectOf(id); obj != nil {
						binds = append(binds, binding{obj: obj, name: id.Name,
							end: lit.Body.Lbrace, limit: lit.End(), scratch: []string{field}})
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				lhsPos[id.Pos()] = true
				assigns[obj] = append(assigns[obj], s.Pos())
				rhs := s.Rhs[0]
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				if !refLike(info.TypeOf(lhs)) {
					continue
				}
				if sc := scratchOf(prog, info, rhs); len(sc) > 0 {
					binds = append(binds, binding{obj: obj, name: id.Name, end: s.End(), limit: body.End(), scratch: sc})
				}
			}
		}
		return true
	})
	for _, b := range binds {
		windowEnd := b.limit
		for _, pos := range assigns[b.obj] {
			if pos >= b.end && pos < windowEnd {
				windowEnd = pos
			}
		}
		// The earliest point from which the view is stale, and the call
		// that made it so.
		stale, by, byLine := token.NoPos, "", 0
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < b.end || call.Pos() >= windowEnd {
				return true
			}
			callee := staticCallee(info, call)
			if callee == nil {
				return true
			}
			for _, field := range b.scratch {
				if !prog.fillsScratch(callee, field) {
					continue
				}
				from := call.End()
				for _, l := range loops {
					if l.Pos() >= b.end && l.Pos() <= call.Pos() && call.End() <= l.End() && l.Pos() < from {
						from = l.Pos()
					}
				}
				if stale == token.NoPos || from < stale {
					stale, by, byLine = from, callee.Name(), p.Fset.Position(call.Pos()).Line
				}
			}
			return true
		})
		if stale == token.NoPos {
			continue
		}
		var first *ast.Ident
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Pos() < stale || id.Pos() >= windowEnd || lhsPos[id.Pos()] || info.ObjectOf(id) != b.obj {
				return true
			}
			if first == nil || id.Pos() < first.Pos() {
				first = id
			}
			return true
		})
		if first == nil {
			continue
		}
		p.Reportf(first.Pos(),
			"scratch image %s used after %s refilled its buffer (line %d): an image of %s is valid only until that scratch is next filled; finish with it first, or copy the bytes out",
			b.name, by, byLine, strings.Join(b.scratch, "/"))
	}
}
