package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Bufalias enforces the pooled-buffer aliasing discipline that gates the
// zero-copy serving path (ROADMAP "cache frame → wire frame with no
// intermediate copy"). The hot path hands out views of reused storage —
// kernel.scratchBytes returns a slice of the kernel's bulk buffer, the
// fs block pool, readBuf and dirBuf recycle block-sized buffers, and
// cache.ReadInto / kernel.StageOutInto / cache.ContentsAt fill a
// caller-owned destination — and every one of those views has a
// sanctioned window: it is valid until the next bulk op, the next
// read, or the pool reuse. An alias that outlives the window is silent
// corruption (the buffer's bytes change under the holder), and the
// compiler cannot see it; with the interprocedural summaries riolint
// can.
//
// Rules, tracked through calls via the Program's summaries:
//
//   - A pooled alias (anything reaching kernel bulkBuf/bulkBuf2/zeroBuf,
//     fs readBuf or dirBuf, or the fs block pool, directly or through a function
//     that returns one) must not be stored in a field, global, or other
//     heap location, sent on a channel, or handed to a goroutine.
//     Returning one is allowed — that propagates the window to the
//     caller, and the caller is tracked in turn.
//   - A request decoded in place from a pooled wire frame
//     (wire.DecodeRequestAliased) is a pooled alias too: its Data points
//     into the frame, so retaining it — a staged transaction op keeping
//     req.Data — needs a copy.
//   - putPooledBlock releases a block back to the pool; using the
//     released value afterwards (including releasing it twice) is a
//     use-after-free against the pool.
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

// poolFields are the struct fields whose reads yield a pooled alias.
var poolFields = map[string]bool{
	"bulkBuf":   true, // kernel bulk scratch
	"bulkBuf2":  true, // kernel second scratch (memcmp)
	"zeroBuf":   true, // kernel zero page
	"readBuf":   true, // fs read-path block buffer
	"dirBuf":    true, // fs directory-block scratch
	"blockPool": true, // fs recycled block buffers
	"frameBufs": true, // server recycled wire-frame buffers (zero-copy reads)
}

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
		if !ok || !releaseFuncs[calleeName(call)] || len(call.Args) != 1 {
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
