package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Wirebounds audits the decode paths of the wire protocol and the
// fleet's RFL1/RSN1 codecs: every length decoded off the network must be
// validated against BOTH its protocol maximum and the bytes actually
// remaining before it drives an allocation or a slice. The two checks
// fail differently — a missing remaining-bytes check is a panic on a
// truncated frame, a missing maximum is a 4 GiB allocation from a
// 20-byte frame — and history keeps producing decoders with exactly one
// of the two.
//
// Mechanics: a value is tainted when it comes from encoding/binary's
// Uint16/Uint32/Uint64 or from the module's own u8/u16/u32/u64 reader
// methods (wire.Cursor's U8…U64), and the decoded width follows it through conversions and
// assignments. Before a tainted value may appear in a slice bound it
// needs a prior comparison against len(...); before a ≥32-bit one may
// size a make() it needs a prior comparison against a constant, a
// parameter, or a package-level bound; passing one to a take-style
// function (one that bounds a parameter against len of its remaining
// buffer — detected from the callee's own body, interprocedurally)
// satisfies the remaining-bytes half but still demands the maximum for
// ≥32-bit widths. u8/u16 values are small enough that the type is its
// own maximum.
//
// A decoder whose blob carries no protocol maximum by design carries
// //riolint:wirebounds <reason>.
var Wirebounds = &Analyzer{
	Name:      "wirebounds",
	Directive: "wirebounds",
	Doc:       "decoded lengths must be checked against their protocol maximum and the remaining buffer before any allocation or slice",
	Run:       runWirebounds,
}

// wireboundsPackages scopes the analyzer to codec code.
var wireboundsPackages = map[string]bool{"wire": true, "fleet": true}

func runWirebounds(p *Pass) {
	if !wireboundsPackages[p.Pkg.Name] {
		return
	}
	takerMemo := make(map[*types.Func]map[int]bool)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkWireFunc(p, fd, takerMemo)
			}
		}
	}
}

// decodeWidth returns the bit width a call decodes, or 0.
func decodeWidth(info *types.Info, call *ast.CallExpr) int {
	callee := staticCallee(info, call)
	if callee == nil {
		return 0
	}
	name := callee.Name()
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" {
		switch name {
		case "Uint16":
			return 16
		case "Uint32":
			return 32
		case "Uint64":
			return 64
		}
		return 0
	}
	switch name {
	case "u8", "U8":
		return 8
	case "u16", "U16":
		return 16
	case "u32", "U32":
		return 32
	case "u64", "U64":
		return 64
	}
	return 0
}

func checkWireFunc(p *Pass, fd *ast.FuncDecl, takerMemo map[*types.Func]map[int]bool) {
	info := p.Pkg.Info
	widths := make(map[types.Object]int)

	paramObjs := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					paramObjs[obj] = true
				}
			}
		}
	}

	// exprWidth: the widest decoded value reachable in e.
	var exprWidth func(e ast.Expr) int
	exprWidth = func(e ast.Expr) int {
		w := 0
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if dw := decodeWidth(info, x); dw > w {
					w = dw
				}
			case *ast.Ident:
				if obj := info.ObjectOf(x); obj != nil && widths[obj] > w {
					w = widths[obj]
				}
			}
			return true
		})
		return w
	}

	// Two passes propagate widths through assignment chains.
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := unparen(lhs).(*ast.Ident)
				if !ok {
					continue // field stores leave the tracked window
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if w := exprWidth(as.Rhs[i]); w > widths[obj] {
					widths[obj] = w
				}
			}
			return true
		})
	}

	// qualifiesMax: the comparison's other operand pins a bound that is
	// not itself derived inside this body — a literal, a constant, a
	// parameter, or a package-level limit.
	qualifiesMax := func(e ast.Expr) bool {
		ok := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BasicLit:
				ok = true
			case *ast.Ident:
				switch obj := info.ObjectOf(x).(type) {
				case *types.Const:
					ok = true
				case *types.Var:
					if paramObjs[obj] || obj.Parent() == p.Pkg.Types.Scope() {
						ok = true
					}
				}
			}
			return true
		})
		return ok
	}
	containsLen := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" {
					if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
						found = true
					}
				}
			}
			return true
		})
		return found
	}

	// Collect the comparisons each tainted object is subjected to.
	lenChecks := make(map[types.Object][]token.Pos)
	maxChecks := make(map[types.Object][]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		record := func(side, other ast.Expr) {
			ast.Inspect(side, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.ObjectOf(id)
				if obj == nil || widths[obj] == 0 {
					return true
				}
				switch {
				case containsLen(other):
					lenChecks[obj] = append(lenChecks[obj], be.Pos())
				case qualifiesMax(other):
					maxChecks[obj] = append(maxChecks[obj], be.Pos())
				}
				return true
			})
		}
		record(be.X, be.Y)
		record(be.Y, be.X)
		return true
	})

	checkedBefore := func(checks map[types.Object][]token.Pos, obj types.Object, use token.Pos) bool {
		for _, pos := range checks[obj] {
			if pos < use {
				return true
			}
		}
		return false
	}

	// taintedIn finds the decoded values inside a use expression: named
	// ones (prior checks may cover them) and anonymous decode calls
	// (which cannot have been checked at all).
	type taintedVal struct {
		obj   types.Object // nil for an anonymous decode result
		width int
		name  string
	}
	taintedIn := func(e ast.Expr) []taintedVal {
		var out []taintedVal
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if obj := info.ObjectOf(x); obj != nil && widths[obj] > 0 {
					out = append(out, taintedVal{obj: obj, width: widths[obj], name: x.Name})
				}
			case *ast.CallExpr:
				if w := decodeWidth(info, x); w > 0 {
					out = append(out, taintedVal{width: w, name: types.ExprString(x)})
					return false
				}
			}
			return true
		})
		return out
	}

	report := func(use token.Pos, v taintedVal, missLen, missMax bool, what string) {
		needMax := missMax && v.width >= 32
		switch {
		case missLen && needMax:
			p.Reportf(use,
				"decoded u%d length %s %s with no bounds check at all: compare it against the remaining bytes (len) and a protocol maximum first",
				v.width, v.name, what)
		case missLen:
			p.Reportf(use,
				"decoded length %s %s without a remaining-bytes check; a truncated frame panics here — compare against len(...) first",
				v.name, what)
		case needMax:
			p.Reportf(use,
				"decoded u%d length %s %s without a protocol-maximum bound; an adversarial frame can declare any size it likes",
				v.width, v.name, what)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
				if bound == nil {
					continue
				}
				for _, v := range taintedIn(bound) {
					missLen := v.obj == nil || !checkedBefore(lenChecks, v.obj, x.Pos())
					missMax := v.obj == nil || !checkedBefore(maxChecks, v.obj, x.Pos())
					report(x.Pos(), v, missLen, missMax, "slices the buffer")
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					for _, sz := range x.Args[1:] {
						for _, v := range taintedIn(sz) {
							missMax := v.obj == nil || !checkedBefore(maxChecks, v.obj, x.Pos())
							report(x.Pos(), v, false, missMax, "sizes an allocation")
						}
					}
					return true
				}
			}
			callee := staticCallee(info, x)
			if callee == nil {
				return true
			}
			takers := takerParamsOf(p, callee, takerMemo)
			if len(takers) == 0 {
				return true
			}
			sig := callee.Type().(*types.Signature)
			np := sig.Params().Len()
			for i, arg := range x.Args {
				pi := i
				if sig.Variadic() && pi >= np-1 {
					pi = np - 1
				}
				if !takers[pi] {
					continue
				}
				for _, v := range taintedIn(arg) {
					missMax := v.obj == nil || !checkedBefore(maxChecks, v.obj, x.Pos())
					report(x.Pos(), v, false, missMax,
						fmt.Sprintf("reaches %s (which only checks the remaining bytes)", callee.Name()))
				}
			}
		}
		return true
	})
}

// takerParamsOf detects take-style callees from their own bodies: a
// parameter the callee compares against len(...) is bounded by the
// remaining buffer inside the callee, so the caller owes only the
// protocol maximum.
func takerParamsOf(p *Pass, fn *types.Func, memo map[*types.Func]map[int]bool) map[int]bool {
	if got, ok := memo[fn]; ok {
		return got
	}
	out := map[int]bool{}
	memo[fn] = out
	if p.Prog == nil {
		return out
	}
	node := p.Prog.funcs[fn]
	if node == nil {
		return out
	}
	info := node.Pkg.Info
	idx := 0
	params := make(map[types.Object]int)
	if node.Decl.Type.Params != nil {
		for _, field := range node.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
		}
	}
	mentions := func(e ast.Expr, obj types.Object) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
			return true
		})
		return found
	}
	hasLen := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" {
					found = true
				}
			}
			return true
		})
		return found
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		for obj, pi := range params {
			if (mentions(be.X, obj) && hasLen(be.Y)) || (mentions(be.Y, obj) && hasLen(be.X)) {
				out[pi] = true
			}
		}
		return true
	})
	return out
}
