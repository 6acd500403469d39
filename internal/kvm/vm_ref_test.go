package kvm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rio/internal/mem"
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

// Twin is a pair of identically built VMs, one run on the fast loop and one
// on the reference; Check compares everything an Exec can change.
type Twin struct {
	Fast, Ref *VM
}

// Exec runs proc on both VMs and reports the first difference between
// them: exception, register file, PC, step count, memory, MMU statistics
// and, when tracing, the tracer's tail.
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
	}
	am, bm := a.MMU.Mem, b.MMU.Mem
	if !bytes.Equal(am.Slice(0, am.Size()), bm.Slice(0, bm.Size())) {
		return fmt.Errorf("memory differs")
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
