package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is riolint's one typestate mechanism. Three of Rio's safety
// arguments are orderings of named steps inside one function body — the
// paper's write-permission window (§3), the transaction layer's publish →
// apply → erase → ack (DESIGN.md §7c), the fleet's exec → persist →
// replicate → ack (§8) — and each is a row of the table below: its verbs
// and the rules that order them. One walk turns a body into verb events,
// one evaluator applies the rules, and one notion of reach sees through
// helpers: a call stands for verb V when V is the only verb of the protocol
// its static callee transitively reaches. So serve's applyCommit(…) is an
// apply, while a roll-forward that reaches Apply and Erase is a whole
// sub-protocol, checked in its own body, and adds nothing to its caller's.
// Reach looks neither inside a verb (readFence replicates and is still the
// fence) nor outside the protocol's package. Exemptions are ranges, never
// positions: a Status-guarded refusal, the read branch of a mutating test.

// A protocol is one row: an analyzer's name, directive and doc, the
// package it lives in ("" = every package), its verbs and its rules.
type protocol struct {
	name, directive, doc, pkg string
	verbs                     []verb
	rules                     []rule
	// readBranch names the verb whose test splits a body into a read path
	// and a write path: `if !verb(…) {…}` and the else of `if verb(…)` are
	// the read branch, which rules marked write do not see.
	readBranch string
}

// A verb is one recognisable step: a call, a field write, or a return.
type verb struct {
	name string
	// A call to a function or method with one of these names, on a
	// receiver whose named type is recv ("" = any) …
	calls []string
	recv  string
	// … whose flagArg-th argument (1-based; 0 = none) is the constant
	// flagVal; the keyArg-th argument's source text keys the event, so an
	// open and a close pair only when they name the same frame. A call
	// with a non-constant flag — the toggle primitive's own definition
	// forwarding its parameter — is no event.
	flagArg, keyArg int
	flagVal         bool
	// A write (assignment, ++, --) to a field of this name; skipLoads
	// excepts an assignment from a call (a load from stable storage).
	field     string
	skipLoads bool
	// A return of a call to verb returnOf, or of a variable assigned from
	// one, outside every if/switch whose condition mentions unless
	// (returning a failed op's response is a refusal, not an ack).
	returnOf, unless string
}

type ruleKind uint8

const (
	// precedes: every b comes after the first a, when both occur; the
	// early b is blamed. With after, only b's that follow the first after
	// event count. With absent (which needs after), a is required: such
	// b's and no a is absent, and a late a is itself blamed.
	precedes ruleKind = iota
	// followed: every a has a later b with the same key, or a deferred one.
	followed
	// used: a's result is not discarded.
	used
)

// A rule orders verbs a and b. Its messages may name $key (the blamed
// event's key) and $1, $2 (the lines of the other positions involved).
type rule struct {
	kind        ruleKind
	a, b, after string
	write       bool // a write-path rule: blind to read-branch events
	everyPath   bool // followed: no return between a and b
	msg, absent string
}

// Protpair enforces the paper's sanctioned-write window (§3): a frame's
// write protection may be dropped — SetFrameProtection(f, false) — only
// for the brief span of a sanctioned store, and must be re-raised on
// every return path of the same function: by a matching `defer` (covers
// all paths by construction) or by a later matching call with no `return`
// between the two (the straight-line open-copy-close idiom). A frame that
// legitimately stays writable (it is being freed) says why: //riolint:protpair.
var Protpair = typestate(&protocol{
	name: "protpair", directive: "protpair",
	doc: "SetFrameProtection(f, false) must be paired with re-protection on all return paths",
	verbs: []verb{
		{name: "open", calls: []string{"SetFrameProtection"}, flagArg: 2, flagVal: false, keyArg: 1},
		{name: "close", calls: []string{"SetFrameProtection"}, flagArg: 2, flagVal: true, keyArg: 1},
	},
	rules: []rule{{kind: followed, a: "open", b: "close", everyPath: true,
		absent: "frame $key is unprotected here and never re-protected in this function; close the write window (a defer of SetFrameProtection($key, true) covers every return path) or annotate //riolint:protpair <reason>",
		msg:    "frame $key is unprotected here but the return at line $1 escapes before the re-protection at line $2; use defer, or re-protect on that path"}},
})

// Commitorder enforces the transaction layer's crash-safety protocol
// (DESIGN.md §7c): Publish, then Apply, then Erase, and ackCommit only
// after the record is published and applied. The ordering is the whole
// atomicity argument — an ack before the record is durable, or an erase
// before it is fully applied, opens exactly the torn-commit window the
// WAL-free design exists to close. The verbs are the methods of any named
// type Log (internal/txn's, or a fixture double) and any call named
// ackCommit. Rule order matters: one diagnostic per misplaced verb, the
// publish-relative message before the apply-relative one.
var Commitorder = typestate(&protocol{
	name: "commitorder", directive: "commitorder",
	doc: "commit records must follow publish -> apply -> erase, acked only after publish+apply",
	verbs: []verb{
		{name: "publish", calls: []string{"Publish"}, recv: "Log"},
		{name: "apply", calls: []string{"Apply"}, recv: "Log"},
		{name: "erase", calls: []string{"Erase"}, recv: "Log"},
		{name: "ack", calls: []string{"ackCommit"}},
	},
	rules: []rule{
		{kind: precedes, a: "publish", b: "ack", msg: "commit acked before its record was published (publish at line $1); a crash between them tears the transaction — order Publish, Apply, Erase, then ackCommit"},
		{kind: precedes, a: "apply", b: "ack", msg: "commit acked before its record was applied (apply at line $1); the ack promises a state that does not exist yet"},
		{kind: precedes, a: "publish", b: "erase", msg: "log erased before the batch was published (publish at line $1); Publish replaces the log itself — an explicit erase first can only drop someone else's record"},
		{kind: precedes, a: "apply", b: "erase", msg: "log erased before its record was applied (apply at line $1); a crash between them loses the committed transaction"},
		{kind: precedes, a: "publish", b: "apply", msg: "record applied before it was published (publish at line $1); a crash between them leaves a partial application no recovery can complete"},
	},
})

// Replorder pins the fleet's replication protocol (DESIGN.md §8), the
// whole machine-loss argument, in package fleet; one rule per row of rules:
//
//  1. ack-before-replicate: on the write path, returning an Exec result
//     before the first confirmPeers/replicateTo acks a write a machine
//     loss can still drop.
//  2. persist-before-exec: on the write path, persisting an advanced seq
//     before the op executes makes tail replay skip the op after a crash
//     between the two (persisting an adopted epoch advances nothing).
//  3. unfenced read: an Exec that follows a mutability test needs a
//     readFence before it, and (4) the fence's verdict must be used — a
//     deposed primary that skips or ignores it serves stale reads.
//  5. unpersisted adoption: a new .epoch (not one loaded from stable
//     storage) with no later persistSeq dies with the process — PR 7's
//     review bug: a promoted primary re-served a fenced role after reboot.
var Replorder = typestate(&protocol{
	name: "replorder", directive: "replorder", pkg: "fleet", readBranch: "mutating",
	doc: "fleet replication must exec, persist, replicate, then ack; adopted epochs must be persisted",
	verbs: []verb{
		{name: "exec", calls: []string{"Exec"}},
		{name: "confirm", calls: []string{"confirmPeers", "replicateTo"}},
		{name: "fence", calls: []string{"readFence"}},
		{name: "persist", calls: []string{"persistSeq"}},
		{name: "mutating", calls: []string{"mutating"}},
		{name: "advance", field: "seq"},
		{name: "adopt", field: "epoch", skipLoads: true},
		{name: "ack", returnOf: "exec", unless: "Status"},
	},
	rules: []rule{
		{kind: precedes, a: "confirm", b: "ack", write: true, msg: "client acked before every active backup confirmed the write (replication at line $1); a machine loss here drops an acked write — replicate, then ack"},
		{kind: precedes, a: "exec", b: "persist", after: "advance", write: true, msg: "sequence number persisted before the op executed (exec at line $1); a crash between them makes tail replay skip this op — exec, advance, then persist"},
		{kind: precedes, a: "fence", b: "exec", after: "mutating", msg: "readFence runs after an op already executed (exec at line $1); fence before serving",
			absent: "this function branches on op mutability but never calls readFence; a deposed primary that skips the fence serves stale reads"},
		{kind: used, a: "fence", msg: "readFence result discarded; a failed fence must refuse the read, not fall through"},
		{kind: followed, a: "adopt", b: "persist", absent: "adopted epoch is never persisted here; a warm reboot reloads the old epoch and the replica re-serves a fenced role — call persistSeq after adopting"},
	},
})

// typestate makes a protocol an Analyzer: every function body in its
// package is checked on its own. A function literal is its own body — it
// may never run, or run later — except a deferred one, which runs on every
// return path of the body that defers it.
func typestate(pr *protocol) *Analyzer {
	return &Analyzer{Name: pr.name, Directive: pr.directive, Doc: pr.doc, Run: func(p *Pass) {
		if pr.pkg != "" && p.Pkg.Name != pr.pkg {
			return
		}
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body != nil {
						pr.check(p, fn.Body)
					}
				case *ast.FuncLit:
					pr.check(p, fn.Body)
				}
				return true
			})
		}
	}}
}

// An event is one occurrence of a verb in a body; every return is a "return".
type event struct {
	verb, key string
	pos       token.Pos
	deferred  bool // runs at return, not where it is written
	dropped   bool // a call standing alone as a statement
	read      bool // inside the read branch
}

// events walks one body into its verb events, in source order.
func (pr *protocol) events(p *Pass, body *ast.BlockStmt) []event {
	var evs []event
	var rets []*ast.ReturnStmt
	from := make(map[types.Object]*verb) // variable → the verb whose call it was assigned from
	var alone ast.Expr                   // the expression of the ExprStmt being walked
	write := func(lhs ast.Expr, load bool) {
		sel, ok := unparen(lhs).(*ast.SelectorExpr)
		for i := range pr.verbs {
			if v := &pr.verbs[i]; ok && v.field == sel.Sel.Name && !(load && v.skipLoads) {
				evs = append(evs, event{verb: v.name, pos: lhs.Pos()})
			}
		}
	}
	var walk func(root ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
				} else {
					walk(s.Call, true)
				}
				return false
			case *ast.ReturnStmt:
				if !deferred {
					evs = append(evs, event{verb: "return", pos: s.Pos()})
					rets = append(rets, s)
				}
			case *ast.ExprStmt:
				alone = s.X
			case *ast.IncDecStmt:
				write(s.X, false)
			case *ast.AssignStmt:
				var call *ast.CallExpr
				if len(s.Rhs) == 1 {
					call, _ = unparen(s.Rhs[0]).(*ast.CallExpr)
				}
				for _, lhs := range s.Lhs {
					write(lhs, call != nil)
				}
				if id, ok := unparen(s.Lhs[0]).(*ast.Ident); ok && call != nil && len(s.Lhs) == 1 {
					from[p.ObjectOf(id)], _ = pr.callVerb(p, call)
				}
			case *ast.CallExpr:
				if v, key := pr.callVerb(p, s); v != nil {
					evs = append(evs, event{verb: v.name, key: key, pos: s.Pos(), deferred: deferred, dropped: alone == ast.Expr(s)})
				}
			}
			return true
		})
	}
	walk(body, false)
	// Returns are classified once every assignment has been seen.
	for i := range pr.verbs {
		v := &pr.verbs[i]
		if v.returnOf == "" {
			continue
		}
		guards := condRanges(body, func(cond ast.Expr) (bool, bool) {
			m := strings.Contains(types.ExprString(cond), v.unless)
			return m, m
		})
		for _, ret := range rets {
			for _, r := range ret.Results {
				var of *verb
				switch x := unparen(r).(type) {
				case *ast.CallExpr:
					of, _ = pr.callVerb(p, x)
				case *ast.Ident:
					of = from[p.ObjectOf(x)]
				}
				if of != nil && of.name == v.returnOf && !inRanges(guards, ret.Pos()) {
					evs = append(evs, event{verb: v.name, pos: ret.Pos()})
					break
				}
			}
		}
	}
	if pr.readBranch != "" {
		reads := condRanges(body, func(cond ast.Expr) (then, els bool) {
			not, _ := unparen(cond).(*ast.UnaryExpr)
			negated := not != nil && not.Op == token.NOT
			if negated {
				cond = not.X
			}
			call, _ := unparen(cond).(*ast.CallExpr)
			if v, _ := pr.callVerb(p, call); v == nil || v.name != pr.readBranch {
				return false, false
			}
			return negated, !negated
		})
		for i := range evs {
			evs[i].read = inRanges(reads, evs[i].pos)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// callVerb names the verb a call is — by its callee's name and receiver,
// and its flag — or stands for by reach, and the event's key.
func (pr *protocol) callVerb(p *Pass, call *ast.CallExpr) (*verb, string) {
	if call == nil {
		return nil, ""
	}
	callee := staticCallee(p.Pkg.Info, call)
	if callee == nil {
		return nil, ""
	}
	for i := range pr.verbs {
		v := &pr.verbs[i]
		if !v.names(callee) {
			continue
		}
		if v.flagArg == 0 {
			return v, ""
		}
		if len(call.Args) >= max(v.flagArg, v.keyArg) {
			flag := p.Pkg.Info.Types[call.Args[v.flagArg-1]].Value
			if flag != nil && flag.Kind() == constant.Bool && constant.BoolVal(flag) == v.flagVal {
				return v, types.ExprString(call.Args[v.keyArg-1])
			}
		}
	}
	var only *verb
	for i := range pr.verbs {
		v := &pr.verbs[i]
		if len(v.calls) > 0 && p.Prog.reaches(callee, pr.name+"."+v.name, func(f *types.Func) (hit, stop bool) {
			stop = pr.pkg != "" && (f.Pkg() == nil || f.Pkg().Name() != pr.pkg)
			for j := range pr.verbs {
				stop = stop || pr.verbs[j].names(f)
			}
			return v.names(f), stop
		}) {
			if only != nil {
				return nil, "" // two verbs: a sub-protocol, not a step (a flagged callee always is)
			}
			only = v
		}
	}
	return only, ""
}

// names reports whether f is one of the functions a call verb names: one
// of calls, on a receiver (through a pointer) whose type is some pkg.recv.
func (v *verb) names(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	if v.recv != "" && (recv == nil || !strings.HasSuffix(recv.Type().String(), "."+v.recv)) {
		return false
	}
	return slices.Contains(v.calls, f.Name())
}

// check evaluates the protocol's rules over one body.
func (pr *protocol) check(p *Pass, body *ast.BlockStmt) {
	evs := pr.events(p, body)
	reported := make(map[token.Pos]bool)
	report := func(e event, msg string, others ...token.Pos) {
		if reported[e.pos] {
			return // one diagnostic per misplaced verb: the earlier rule subsumes the later
		}
		reported[e.pos] = true
		msg = strings.ReplaceAll(msg, "$key", e.key)
		for i, o := range others {
			msg = strings.ReplaceAll(msg, "$"+strconv.Itoa(i+1), strconv.Itoa(p.Fset.Position(o).Line))
		}
		p.Reportf(e.pos, "%s", msg)
	}
	for i := range pr.rules {
		r := &pr.rules[i]
		// of selects the events a rule orders: those that run where they
		// are written, on the path the rule is about, after a position.
		of := func(verb string, after token.Pos) []event {
			var out []event
			for _, e := range evs {
				if e.verb == verb && e.pos > after && !e.deferred && !(r.write && e.read) {
					out = append(out, e)
				}
			}
			return out
		}
		switch r.kind {
		case precedes:
			as, bs, gate := of(r.a, token.NoPos), of(r.b, token.NoPos), []event(nil)
			if r.after != "" {
				if gate = of(r.after, token.NoPos); len(gate) == 0 {
					continue
				}
				bs = of(r.b, gate[0].pos)
			}
			switch {
			case len(bs) == 0:
			case r.absent != "" && len(as) == 0:
				report(gate[0], r.absent)
			case r.absent != "" && as[0].pos > bs[0].pos:
				report(as[0], r.msg, bs[0].pos)
			case r.absent == "" && len(as) > 0:
				for _, b := range bs {
					if b.pos < as[0].pos {
						report(b, r.msg, as[0].pos)
					}
				}
			}
		case followed:
			for _, a := range of(r.a, token.NoPos) {
				closed, next := false, token.NoPos
				for _, b := range evs {
					if b.verb == r.b && b.key == a.key {
						closed = closed || b.deferred
						if next == token.NoPos && b.pos > a.pos {
							next = b.pos
						}
					}
				}
				switch rets := of("return", a.pos); {
				case closed:
				case next == token.NoPos:
					report(a, r.absent)
				case r.everyPath && len(rets) > 0 && rets[0].pos < next:
					report(a, r.msg, rets[0].pos, next)
				}
			}
		case used:
			for _, a := range evs {
				if a.verb == r.a && a.dropped {
					report(a, r.msg)
				}
			}
		}
	}
}

// condRanges collects the if branches (and tagged-switch bodies) of body
// that pick selects: of a condition, whether its then and its else count.
func condRanges(body *ast.BlockStmt, pick func(cond ast.Expr) (then, els bool)) [][2]token.Pos {
	var ranges [][2]token.Pos
	add := func(n ast.Node) { ranges = append(ranges, [2]token.Pos{n.Pos(), n.End()}) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			then, els := pick(s.Cond)
			if then {
				add(s.Body)
			}
			if els && s.Else != nil {
				add(s.Else)
			}
		case *ast.SwitchStmt:
			if then, _ := pick(s.Tag); s.Tag != nil && then {
				add(s.Body)
			}
		}
		return true
	})
	return ranges
}

func inRanges(ranges [][2]token.Pos, pos token.Pos) bool {
	return slices.ContainsFunc(ranges, func(r [2]token.Pos) bool { return r[0] <= pos && pos < r[1] })
}
