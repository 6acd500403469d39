package kvm

import (
	"fmt"
	"reflect"
	"testing"

	"rio/internal/mem"
	"rio/internal/mmu"
)

// The reference interpreter: the run loop as it stood before the fast one
// (decode through an Instr value, PC and step count in the VM's fields),
// kept verbatim as the oracle the fast loop is held to — as cksumBytesRef
// and alloc_ref_test.go are for their fast paths.

// ExecRef is Exec on the reference loop. (Exported for the kvm_test
// package, which drives the real kernel text through it.)
func ExecRef(v *VM, proc string, args ...uint64) *Exception {
	if err := v.enter(proc, args); err != nil {
		return err
	}
	return v.refRun()
}

func (v *VM) refRun() *Exception {
	budget := v.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	for n := uint64(0); ; n++ {
		if n >= budget {
			return &Exception{Kind: ExcBudget, PC: v.pc}
		}
		if v.pc < 0 || v.pc >= v.Text.Len() {
			return &Exception{Kind: ExcIllegalInstr, PC: v.pc,
				Reason: "pc outside kernel text"}
		}
		in := Decode(v.Text.Word(v.pc))
		if !in.Op.Valid() {
			return &Exception{Kind: ExcIllegalInstr, PC: v.pc,
				Reason: fmt.Sprintf("opcode %d", uint8(in.Op))}
		}
		v.Steps++
		next := v.pc + 1
		r := &v.Reg

		if v.Trace != nil {
			e := TraceEntry{PC: v.pc, Word: v.Text.Word(v.pc)}
			switch in.Op {
			case OpSt:
				e.Store = true
				e.Addr = r[in.Rs1] + uint64(int64(in.Imm))
				e.Val = r[in.Rs2]
			case OpStB:
				e.Store = true
				e.Addr = r[in.Rs1] + uint64(int64(in.Imm))
				e.Val = uint64(byte(r[in.Rs2]))
			case OpPush:
				e.Store = true
				e.Addr = r[SP] - 8
				e.Val = r[in.Rs1]
			}
			v.Trace.record(e)
		}

		switch in.Op {
		case OpNop:
		case OpMovI:
			r[in.Rd] = uint64(int64(in.Imm))
		case OpMovHi:
			r[in.Rd] = (r[in.Rd] & 0xffffffff) | uint64(uint32(in.Imm))<<32
		case OpMov:
			r[in.Rd] = r[in.Rs1]
		case OpAdd:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case OpSub:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case OpAddI:
			r[in.Rd] = r[in.Rs1] + uint64(int64(in.Imm))
		case OpAnd:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		case OpOr:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		case OpXor:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		case OpShlI:
			r[in.Rd] = r[in.Rs1] << (uint32(in.Imm) & 63)
		case OpShrI:
			r[in.Rd] = r[in.Rs1] >> (uint32(in.Imm) & 63)
		case OpLd:
			val, trap := v.MMU.Load64(r[in.Rs1] + uint64(int64(in.Imm)))
			if trap != nil {
				return &Exception{Kind: ExcTrap, PC: v.pc, Trap: trap}
			}
			r[in.Rd] = val
		case OpSt:
			if trap := v.MMU.Store64(r[in.Rs1]+uint64(int64(in.Imm)), r[in.Rs2]); trap != nil {
				return &Exception{Kind: ExcTrap, PC: v.pc, Trap: trap}
			}
		case OpLdB:
			val, trap := v.MMU.LoadByte(r[in.Rs1] + uint64(int64(in.Imm)))
			if trap != nil {
				return &Exception{Kind: ExcTrap, PC: v.pc, Trap: trap}
			}
			r[in.Rd] = uint64(val)
		case OpStB:
			if trap := v.MMU.StoreByte(r[in.Rs1]+uint64(int64(in.Imm)), byte(r[in.Rs2])); trap != nil {
				return &Exception{Kind: ExcTrap, PC: v.pc, Trap: trap}
			}
		case OpBeq:
			if r[in.Rs1] == r[in.Rs2] {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpBne:
			if r[in.Rs1] != r[in.Rs2] {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpBlt:
			if int64(r[in.Rs1]) < int64(r[in.Rs2]) {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpBge:
			if int64(r[in.Rs1]) >= int64(r[in.Rs2]) {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpBle:
			if int64(r[in.Rs1]) <= int64(r[in.Rs2]) {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpBgt:
			if int64(r[in.Rs1]) > int64(r[in.Rs2]) {
				next = v.pc + 1 + int(in.Imm)
			}
		case OpJmp:
			next = v.pc + 1 + int(in.Imm)
		case OpCall:
			if err := v.push(v.pc, uint64(v.pc+1)); err != nil {
				return err
			}
			next = int(in.Imm)
			if hook := v.EntryHooks[next]; hook != nil {
				hook(v)
			}
		case OpRet:
			ret, err := v.pop(v.pc)
			if err != nil {
				return err
			}
			if ret == retSentinel {
				return nil
			}
			next = int(ret)
		case OpPush:
			if err := v.push(v.pc, r[in.Rs1]); err != nil {
				return err
			}
		case OpPop:
			val, err := v.pop(v.pc)
			if err != nil {
				return err
			}
			r[in.Rd] = val
		case OpIntr:
			if v.Intr == nil {
				return &Exception{Kind: ExcIllegalInstr, PC: v.pc,
					Reason: "intrinsic with no handler"}
			}
			v.pc = next // intrinsics see the post-instruction PC
			if exc := v.Intr.Intrinsic(v, in.Imm); exc != nil {
				return exc
			}
			continue
		case OpAssert:
			if r[in.Rs1] != r[in.Rs2] {
				return &Exception{Kind: ExcAssert, PC: v.pc,
					Reason: fmt.Sprintf("r%d(%#x) != r%d(%#x)",
						in.Rs1, r[in.Rs1], in.Rs2, r[in.Rs2])}
			}
		case OpHalt:
			return nil
		}
		v.pc = next
	}
}

// CopyLoops maps each address at which run finds a copy loop in t to the
// loop's width. (Exported for the kvm_test package, which checks the
// kernel's text.)
func CopyLoops(t *Text) map[int]int {
	at := map[int]int{}
	for pc := range t.words {
		if c := copyIdiomAt(t.words, pc); c != nil {
			at[pc] = c.width
		}
	}
	return at
}

// Twin is a pair of identically built VMs, one run on the fast loop and one
// on the reference; Check compares everything an Exec can change.
type Twin struct {
	Fast, Ref *VM
}

// Exec runs proc on both VMs and reports the first difference between
// them: exception, register file, PC, step count, the whole MMU (its
// statistics, TLB, page table, frame flags and memory) and, when tracing,
// the tracer's tail.
func (tw Twin) Exec(proc string, args ...uint64) error {
	return tw.diff(tw.Fast.Exec(proc, args...), ExecRef(tw.Ref, proc, args...))
}

func (tw Twin) diff(fast, ref *Exception) error {
	a, b := tw.Fast, tw.Ref
	switch {
	case !reflect.DeepEqual(fast, ref):
		return fmt.Errorf("exception: fast %+v, ref %+v", fast, ref)
	case a.Reg != b.Reg:
		return fmt.Errorf("registers: fast %x, ref %x", a.Reg, b.Reg)
	case a.PC() != b.PC():
		return fmt.Errorf("PC: fast %d, ref %d", a.PC(), b.PC())
	case a.Steps != b.Steps:
		return fmt.Errorf("Steps: fast %d, ref %d", a.Steps, b.Steps)
	case a.MMU.Stats != b.MMU.Stats:
		return fmt.Errorf("mmu.Stats: fast %+v, ref %+v", a.MMU.Stats, b.MMU.Stats)
	case !reflect.DeepEqual(a.MMU, b.MMU):
		// The rest of the MMU: TLB, page table, frame flags and memory.
		return fmt.Errorf("MMU state differs")
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		return fmt.Errorf("tracing on one twin only")
	}
	if a.Trace != nil && !reflect.DeepEqual(a.Trace.Tail(), b.Trace.Tail()) {
		return fmt.Errorf("trace tails differ")
	}
	return nil
}

// reentrant is an Intrinsics handler that does what the kernel's may: it
// looks at the PC and the step count, edits registers, and every so often
// re-enters the VM — on the same loop the outer Exec is on.
type reentrant struct {
	exec  func(v *VM, proc string, args ...uint64) *Exception
	proc  string
	depth int
}

func (h *reentrant) Intrinsic(v *VM, num int32) *Exception {
	v.Reg[0] = uint64(v.PC())<<32 ^ v.Steps ^ uint64(uint32(num))
	switch {
	case num%5 == 0:
		return &Exception{Kind: ExcIntrinsic, PC: v.PC(), Reason: fmt.Sprintf("intrinsic %d panics", num)}
	case num%2 == 0 && h.depth < 2:
		h.depth++
		exc := h.exec(v, h.proc, v.Reg[4])
		h.depth--
		if exc != nil && exc.Kind == ExcAssert {
			return exc
		}
		v.Reg[2] += v.Steps
	}
	return nil
}

// dress gives both twins the same optional equipment, chosen by the bits of
// mode: register noise, a tracer, a tight budget, entry hooks, and the
// re-entrant intrinsic handler.
func (tw Twin) dress(mode uint64, proc string) {
	for i, v := range []*VM{tw.Fast, tw.Ref} {
		if mode&1 != 0 {
			noise := mode
			v.RegNoise = func() (uint64, bool) {
				val := next(&noise)
				return val, val%4 != 0
			}
		}
		if mode&2 != 0 {
			v.Trace = NewTracer(16)
		}
		if mode&4 != 0 {
			v.Budget = 40 + mode>>8%400
		}
		if mode&8 != 0 {
			// A hook on every address: whichever a (possibly mutated) call
			// lands on, it observes the mid-run PC and step count and
			// edits a register.
			for pc := 0; pc < v.Text.Len(); pc++ {
				v.EntryHooks[pc] = func(v *VM) { v.Reg[3] ^= uint64(v.PC())<<20 + v.Steps }
			}
		}
		if mode&16 != 0 {
			h := &reentrant{proc: proc, exec: (*VM).Exec}
			if i == 1 {
				h.exec = ExecRef
			}
			v.Intr = h
		}
	}
}

// TestRunMatchesReference holds the fast loop to the reference over the
// fuzz corpora of fuzz_test.go, each program run three times on one pair of
// VMs (stale registers, PC and step count carry over) under every
// combination of optional equipment. A fifth of the random programs have
// an intrinsic and a call planted in them, which random words almost never
// decode to.
func TestRunMatchesReference(t *testing.T) {
	corpus := func(name, proc string, rounds int, seed uint64, gen func(*uint64) *Text, plant bool) {
		for round := 0; round < rounds; round++ {
			text := gen(&seed)
			if plant && round%5 == 0 {
				text.SetWord(int(next(&seed)%uint64(text.Len())),
					Instr{Op: OpIntr, Imm: int32(next(&seed) % 16)}.Encode())
				text.SetWord(int(next(&seed)%uint64(text.Len())),
					Instr{Op: OpCall, Imm: int32(next(&seed) % uint64(text.Len()))}.Encode())
			}
			tw := Twin{Fast: fuzzVM(text.Clone()), Ref: fuzzVM(text.Clone())}
			for _, v := range []*VM{tw.Fast, tw.Ref} {
				v.Budget = 50_000
			}
			tw.dress(uint64(round)|next(&seed)<<8, proc)
			for r := range tw.Fast.Reg {
				tw.Fast.Reg[r] = next(&seed)
			}
			tw.Ref.Reg = tw.Fast.Reg
			for i := 0; i < 3; i++ {
				if err := tw.Exec(proc, next(&seed)%(4*mem.PageSize)); err != nil {
					t.Fatalf("%s round %d exec %d: %v\n%s", name, round, i, err,
						text.Disassemble(0, text.Len()))
				}
			}
		}
	}
	corpus("random text", "fuzz", 400, 0xF0CC, randomText, true)
	corpus("mutated text", "main", 600, 0xBEEF, mutatedText, false)
	for i := range copyIdioms {
		copyLoopCorpus(t, &copyIdioms[i])
	}
}

// copyText is a procedure "copy"(dst=r1, src=r2, len=r3) around copy loop
// c, set up as bcopy sets it up: i = 0, then c's bound at its value for
// "while a whole element is left" (r6 = 8 for the word loop, r5 = 0 for
// the byte loop) unless it is left stale, the loop, return. A flip of
// 0..511 flips that bit of the loop's eight words.
func copyText(c *copyIdiom, staleBound bool, flip int) *Text {
	a := NewAsm()
	a.Proc("copy")
	a.MovI(4, 0)
	if !staleBound {
		a.MovI(int(c.bound), int32(c.width)-int32(c.margin))
	}
	loop := a.Here()
	a.CopyLoop(c.width)
	a.Ret()
	text := a.MustAssemble()
	if flip >= 0 {
		text.FlipBit(loop+flip/64, uint(flip%64))
	}
	return text
}

// copyVM is a VM for copyText over eight frames: the stack in virtual page
// 0; virtual pages 1, 2 on frames 1, 2 and 65, 66 on frames 3, 4 — 1 and
// 65, 2 and 66 share a TLB slot — each pair followed by an unmapped page;
// virtual pages 4, 5 on frames 5, 6; frame 6 a Rio-protected file-cache
// frame. The bits of mode switch on EnforceProtection, MapAllThroughTLB
// and CodePatching.
func copyVM(text *Text, mode int) *VM {
	const p = mem.PageSize
	u := mmu.New(mem.New(8 * p))
	for _, m := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {65, 3}, {66, 4}, {4, 5}, {5, 6}} {
		u.Map(uint64(m[0]), m[1], true)
	}
	for a := uint64(0); a < 8*p; a += 8 {
		u.Mem.SetWord64(a, a*0x9e3779b97f4a7c15+1)
	}
	u.Mem.Frame(6).FileCache = true
	u.SetFrameProtection(6, true)
	u.EnforceProtection, u.MapAllThroughTLB, u.CodePatching = mode&1 != 0, mode&2 != 0, mode&4 != 0
	v := New(text, u)
	v.SetStack(p, p/2)
	return v
}

// copyCase is one copy a loop corpus runs.
type copyCase struct {
	name          string
	dst, src, len uint64
}

// wordCopies and byteCopies are the copies the two loops' corpora run on
// copyVM: in both directions between virtual pages that share a TLB slot
// and within one page, between KSEG and virtual addresses both ways, into
// load and store traps as a copy crosses onto an unmapped page, a
// protected frame or off the end of memory, overlapping by one element
// either way, and lengths a faulted register file leaves: negative, and
// r3-r4 at MinInt64+1 and MaxInt64.
var (
	wordCopies = func() []copyCase {
		const p = mem.PageSize
		k := mmu.PhysToKSEG
		return []copyCase{
			{"shared TLB slot, crossing pages", 65*p + 64, p + 64, p + 512},
			{"shared TLB slot, other way", p + 64, 65*p + 128, p},
			{"same page", p + 4096, p, 2048},
			{"same page, other way", p, p + 4096, 2048},
			{"KSEG to virtual", 2*p + 8, k(5*p + 64), 3000},
			{"virtual to KSEG", k(7 * p), p + 512, p},
			{"load trap, unmapped page", k(7 * p), 3*p - 256, 600},
			{"store trap, unmapped page", 67*p - 128, p, 512},
			{"store trap, protected frame through KSEG", k(6*p - 64), p, 512},
			{"store trap, protected frame", 5*p - 64, p, 512},
			{"overlap, dst = src+8", p + 8, p, 4096},
			{"overlap, dst = src-8", k(7 * p), k(7*p + 8), 4096},
			{"misaligned", p + 4, 2 * p, 64},
			{"shorter than a word", p, 2 * p, 7},
			{"negative length", p, 2 * p, 1<<63 + 64},
		}
	}()
	byteCopies = func() []copyCase {
		const p = mem.PageSize
		k := mmu.PhysToKSEG
		return []copyCase{
			{"shared TLB slot, crossing pages", 65*p + 61, p + 67, p + 300},
			{"shared TLB slot, other way", p + 5, 65*p + 130, p},
			{"same page", p + 4097, p + 1, 2000},
			{"same page, other way", p + 3, p + 4099, 2000},
			{"KSEG to virtual, crossing frames", 2*p + 9, k(5*p - 1000), 3000},
			{"virtual to KSEG, crossing pages", k(6*p + 3), p + 8000, 1000},
			{"load trap, unmapped page", k(7 * p), 3*p - 255, 600},
			{"load trap, unmapped page, into KSEG", 66*p + 1, 3*p - 100, 300},
			{"load trap, off the end of memory", 2*p + 1, k(8*p - 100), 300},
			{"store trap, unmapped page", 67*p - 127, p + 1, 512},
			{"store trap, unmapped page, from KSEG", 3*p - 77, k(4*p + 1), 512},
			{"store trap, off the end of memory", k(8*p - 50), p + 3, 200},
			{"store trap, protected frame through KSEG", k(6*p - 63), p, 512},
			{"store trap, protected frame", 5*p - 63, p + 3, 512},
			{"overlap, dst = src+1", p + 9, p + 8, 4096},
			{"overlap, dst = src+1, crossing pages", p + 8000, p + 7999, 400},
			{"overlap, src = dst+1", k(7 * p), k(7*p + 1), 4096},
			{"aligned", p, 2 * p, 64},
			{"one byte", p + 1, 2*p + 1, 1},
			{"empty", p + 1, 2*p + 1, 0},
			{"negative length", p + 1, 2 * p, 1<<63 + 64},
			{"r3-r4 at MinInt64+1", p + 1, 2 * p, 1<<63 + 1},
			{"r3-r4 at MaxInt64", p + 1, 2*p + 1, 1<<63 - 1},
		}
	}()
)

// copyLoopCorpus holds a copy loop's native run to the reference: every
// copy under each protection mode, traced (which must switch the native run
// off), and with the budget expiring at each of the eight offsets of an
// early and of a late iteration; then with stale bounds; then with each
// bit of the loop flipped, which must switch it off too.
func copyLoopCorpus(t *testing.T, c *copyIdiom) {
	if c.words[0] != copyHead {
		t.Fatalf("width-%d copy loop starts %#x; run looks for copyHead, %#x", c.width, c.words[0], copyHead)
	}
	width, boundReg, copies := c.width, int(c.bound), wordCopies
	if width == 1 {
		copies = byteCopies
	}
	exec := func(what string, text *Text, mode int, dress func(Twin), i int) {
		cp := copies[i%len(copies)]
		tw := Twin{Fast: copyVM(text.Clone(), mode), Ref: copyVM(text.Clone(), mode)}
		dress(tw)
		for run := 0; run < 2; run++ { // the second on stale registers and a warm TLB
			if err := tw.Exec("copy", cp.dst, cp.src, cp.len); err != nil {
				t.Fatalf("width-%d copy loop, %s, %s, mode %d, run %d: %v", width, cp.name, what, mode, run, err)
			}
		}
	}
	budget := func(b uint64) func(Twin) {
		return func(tw Twin) { tw.Fast.Budget, tw.Ref.Budget = b, b }
	}
	for i := range copies {
		for mode := 0; mode < 8; mode++ {
			exec("default budget", copyText(c, false, -1), mode, budget(0), i)
			exec("traced", copyText(c, false, -1), mode, func(tw Twin) {
				tw.Fast.Trace, tw.Ref.Trace = NewTracer(16), NewTracer(16)
			}, i)
			for _, iter := range []uint64{2, 40} {
				for off := uint64(0); off < 8; off++ {
					// Two prologue instructions, then iter whole iterations.
					exec(fmt.Sprintf("budget ends at offset %d of iteration %d", off, iter),
						copyText(c, false, -1), mode, budget(2+8*iter+off), i)
				}
			}
		}
	}
	bounds := []uint64{8, 0, 1, 7, 9, 16, 24, 1 << 12, ^uint64(7), ^uint64(0), 1 << 63, 1<<63 + 1, 1<<63 - 1}
	for s, bound := range bounds {
		for i := range copies {
			exec(fmt.Sprintf("bound r%d = %#x", boundReg, bound), copyText(c, true, -1), 3,
				func(tw Twin) { tw.Fast.Reg[boundReg], tw.Ref.Reg[boundReg] = bound, bound }, i+s)
		}
	}
	for flip := 0; flip < 64*copyLen; flip++ {
		exec(fmt.Sprintf("bit %d of loop word %d flipped", flip%64, flip/64), copyText(c, false, flip), flip%8,
			func(tw Twin) { tw.dress(uint64(flip)|uint64(flip)<<8, "copy") }, flip)
	}
}

// TestDecodeFieldsMatchesLayout checks the loop's field extraction, for
// every op byte and every register byte in each of the three register
// positions, against the documented word layout spelled out independently
// here, and checks that Decode is the same fields.
func TestDecodeFieldsMatchesLayout(t *testing.T) {
	for _, imm := range []uint32{0, 1, 0x7fffffff, 0x80000000, 0xffffffff, 0xdeadbeef} {
		for op := 0; op < 256; op++ {
			for reg := 0; reg < 256; reg++ {
				for pos := 0; pos < 3; pos++ {
					// The other two register bytes get reg's complement, so
					// a field read from the wrong byte shows.
					bytes := [3]uint8{^uint8(reg), ^uint8(reg), ^uint8(reg)}
					bytes[pos] = uint8(reg)
					w := uint64(op) | uint64(bytes[0])<<8 | uint64(bytes[1])<<16 |
						uint64(bytes[2])<<24 | uint64(imm)<<32
					want := Instr{Op: Op(op), Rd: bytes[0] % NumRegs, Rs1: bytes[1] % NumRegs,
						Rs2: bytes[2] % NumRegs, Imm: int32(imm)}
					gop, grd, grs1, grs2, gimm := decodeFields(w)
					if got := (Instr{gop, grd, grs1, grs2, gimm}); got != want {
						t.Fatalf("decodeFields(%#x) = %+v, want %+v", w, got, want)
					}
					if got := Decode(w); got != want {
						t.Fatalf("Decode(%#x) = %+v, want %+v", w, got, want)
					}
				}
			}
		}
	}
}
