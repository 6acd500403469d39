package kvm

import "fmt"

// Asm is a small builder-style assembler for kernel procedures. It handles
// forward label fixups and records per-procedure metadata (entry point,
// prologue length) that the fault injector needs.
//
// Usage:
//
//	a := NewAsm()
//	a.Proc("bcopy")
//	a.MovI(4, 0)          // i = 0
//	a.EndProlog()
//	loop := a.Here()
//	...
//	a.Bne(4, 3, loop)
//	a.Ret()
//	text := a.Assemble()
type Asm struct {
	words  []uint64
	procs  []Proc
	cur    *Proc
	fixups []fixup
	labels map[string]int
	err    error
}

type fixup struct {
	at     int    // instruction index whose imm needs patching
	target string // label name
	call   bool   // absolute (call) vs relative (branch/jmp)
}

// Proc describes one assembled procedure.
type Proc struct {
	Name   string
	Entry  int // absolute instruction index of the entry point
	End    int // one past the last instruction
	Prolog int // number of prologue (initialisation) instructions
}

// Len returns the procedure length in instructions.
func (p Proc) Len() int { return p.End - p.Entry }

// NewAsm returns an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int)}
}

// Proc begins a new procedure. It implicitly ends the previous one.
func (a *Asm) Proc(name string) {
	a.endProc()
	a.procs = append(a.procs, Proc{Name: name, Entry: len(a.words)})
	a.cur = &a.procs[len(a.procs)-1]
	a.labels[name] = a.cur.Entry
}

func (a *Asm) endProc() {
	if a.cur != nil {
		a.cur.End = len(a.words)
		if a.cur.Prolog == 0 {
			a.cur.Prolog = min(2, a.cur.Len()) // default: first 2 instructions
		}
		a.cur = nil
	}
}

// EndProlog marks the end of the current procedure's initialisation
// prologue (the instructions the "initialization" fault model deletes).
func (a *Asm) EndProlog() {
	if a.cur == nil {
		a.fail("EndProlog outside procedure")
		return
	}
	a.cur.Prolog = len(a.words) - a.cur.Entry
}

// Here returns the address of the next instruction, for backward branches.
func (a *Asm) Here() int { return len(a.words) }

// Label binds name to the next instruction address (for forward branches).
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.fail("duplicate label %q", name)
	}
	a.labels[name] = len(a.words)
}

func (a *Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("asm: "+format, args...)
	}
}

func (a *Asm) emit(i Instr) {
	if a.cur == nil {
		a.fail("instruction outside procedure")
		return
	}
	a.words = append(a.words, i.Encode())
}

// --- instruction emitters ---

func (a *Asm) Nop()                   { a.emit(Instr{Op: OpNop}) }
func (a *Asm) MovI(rd int, imm int32) { a.emit(Instr{Op: OpMovI, Rd: uint8(rd), Imm: imm}) }
func (a *Asm) MovHi(rd int, imm int32) {
	a.emit(Instr{Op: OpMovHi, Rd: uint8(rd), Imm: imm})
}
func (a *Asm) Mov(rd, rs int) { a.emit(Instr{Op: OpMov, Rd: uint8(rd), Rs1: uint8(rs)}) }
func (a *Asm) Add(rd, r1, r2 int) {
	a.emit(Instr{Op: OpAdd, Rd: uint8(rd), Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) Sub(rd, r1, r2 int) {
	a.emit(Instr{Op: OpSub, Rd: uint8(rd), Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) AddI(rd, r1 int, imm int32) {
	a.emit(Instr{Op: OpAddI, Rd: uint8(rd), Rs1: uint8(r1), Imm: imm})
}
func (a *Asm) And(rd, r1, r2 int) {
	a.emit(Instr{Op: OpAnd, Rd: uint8(rd), Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) Or(rd, r1, r2 int) {
	a.emit(Instr{Op: OpOr, Rd: uint8(rd), Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) Xor(rd, r1, r2 int) {
	a.emit(Instr{Op: OpXor, Rd: uint8(rd), Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) ShlI(rd, r1 int, imm int32) {
	a.emit(Instr{Op: OpShlI, Rd: uint8(rd), Rs1: uint8(r1), Imm: imm})
}
func (a *Asm) ShrI(rd, r1 int, imm int32) {
	a.emit(Instr{Op: OpShrI, Rd: uint8(rd), Rs1: uint8(r1), Imm: imm})
}
func (a *Asm) Ld(rd, base int, off int32) {
	a.emit(Instr{Op: OpLd, Rd: uint8(rd), Rs1: uint8(base), Imm: off})
}
func (a *Asm) St(base int, off int32, rs int) {
	a.emit(Instr{Op: OpSt, Rs1: uint8(base), Rs2: uint8(rs), Imm: off})
}
func (a *Asm) LdB(rd, base int, off int32) {
	a.emit(Instr{Op: OpLdB, Rd: uint8(rd), Rs1: uint8(base), Imm: off})
}
func (a *Asm) StB(base int, off int32, rs int) {
	a.emit(Instr{Op: OpStB, Rs1: uint8(base), Rs2: uint8(rs), Imm: off})
}
func (a *Asm) Push(rs int) { a.emit(Instr{Op: OpPush, Rs1: uint8(rs)}) }
func (a *Asm) Pop(rd int)  { a.emit(Instr{Op: OpPop, Rd: uint8(rd)}) }
func (a *Asm) Intr(num int32) {
	a.emit(Instr{Op: OpIntr, Imm: num})
}
func (a *Asm) Assert(r1, r2 int) {
	a.emit(Instr{Op: OpAssert, Rs1: uint8(r1), Rs2: uint8(r2)})
}
func (a *Asm) Ret()  { a.emit(Instr{Op: OpRet}) }
func (a *Asm) Halt() { a.emit(Instr{Op: OpHalt}) }

// branch emits a conditional branch to an absolute target address (an int
// from Here) — the encoded imm is relative.
func (a *Asm) branch(op Op, r1, r2 int, target int) {
	rel := int32(target - (len(a.words) + 1))
	a.emit(Instr{Op: op, Rs1: uint8(r1), Rs2: uint8(r2), Imm: rel})
}

func (a *Asm) Beq(r1, r2, target int) { a.branch(OpBeq, r1, r2, target) }
func (a *Asm) Bne(r1, r2, target int) { a.branch(OpBne, r1, r2, target) }
func (a *Asm) Blt(r1, r2, target int) { a.branch(OpBlt, r1, r2, target) }
func (a *Asm) Bge(r1, r2, target int) { a.branch(OpBge, r1, r2, target) }
func (a *Asm) Ble(r1, r2, target int) { a.branch(OpBle, r1, r2, target) }
func (a *Asm) Bgt(r1, r2, target int) { a.branch(OpBgt, r1, r2, target) }

// BeqL etc. branch to a (possibly forward) label.
func (a *Asm) branchL(op Op, r1, r2 int, label string) {
	a.fixups = append(a.fixups, fixup{at: len(a.words), target: label})
	a.emit(Instr{Op: op, Rs1: uint8(r1), Rs2: uint8(r2)})
}

func (a *Asm) BeqL(r1, r2 int, label string) { a.branchL(OpBeq, r1, r2, label) }
func (a *Asm) BneL(r1, r2 int, label string) { a.branchL(OpBne, r1, r2, label) }
func (a *Asm) BltL(r1, r2 int, label string) { a.branchL(OpBlt, r1, r2, label) }
func (a *Asm) BgeL(r1, r2 int, label string) { a.branchL(OpBge, r1, r2, label) }
func (a *Asm) BleL(r1, r2 int, label string) { a.branchL(OpBle, r1, r2, label) }
func (a *Asm) BgtL(r1, r2 int, label string) { a.branchL(OpBgt, r1, r2, label) }

// Jmp jumps to an absolute address obtained from Here (backward jumps).
func (a *Asm) Jmp(target int) {
	rel := int32(target - (len(a.words) + 1))
	a.emit(Instr{Op: OpJmp, Imm: rel})
}

// JmpL jumps to a label.
func (a *Asm) JmpL(label string) {
	a.fixups = append(a.fixups, fixup{at: len(a.words), target: label})
	a.emit(Instr{Op: OpJmp})
}

// Call emits a call to a named procedure (fixed up at assembly).
func (a *Asm) Call(proc string) {
	a.fixups = append(a.fixups, fixup{at: len(a.words), target: proc, call: true})
	a.emit(Instr{Op: OpCall})
}

// Assemble finalises the text: resolves fixups and returns the Text. It
// returns an error for unresolved labels or emissions outside procedures.
func (a *Asm) Assemble() (*Text, error) {
	a.endProc()
	if a.err != nil {
		return nil, a.err
	}
	for _, f := range a.fixups {
		target, ok := a.labels[f.target]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.target)
		}
		in := Decode(a.words[f.at])
		if f.call {
			in.Imm = int32(target)
		} else {
			in.Imm = int32(target - (f.at + 1))
		}
		a.words[f.at] = in.Encode()
	}
	t := &Text{words: a.words, procs: make(map[string]Proc, len(a.procs))}
	for _, p := range a.procs {
		t.procs[p.Name] = p
	}
	t.procList = a.procs
	return t, nil
}

// MustAssemble is Assemble panicking on error; for the kernel's built-in
// text, which is validated by tests.
func (a *Asm) MustAssemble() *Text {
	t, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return t
}
