// Package kvm implements the kernel virtual machine: a small register
// machine in which the simulated kernel's data-movement inner loops run.
//
// Why interpret kernel code at all? The paper's fault models operate at the
// level of machine instructions — flip a bit in kernel text, change a
// source or destination register, delete the instruction that most recently
// set a load/store base register, swap > for >=. For those faults to have
// their real consequences (wild stores that the MMU may or may not catch,
// consistency checks that panic, loops that run away), there must be an
// instruction stream to corrupt and an MMU in the loop. The kvm provides
// both: every load and store an interpreted procedure issues goes through
// mmu.MMU, so a corrupted pointer really does hit the file cache — or
// really does trap.
//
// The instruction set is tiny (a couple of dozen opcodes) but sufficient to
// express the kernel's copy/checksum/fill loops and composite buffer-write
// procedures with realistic structure: a stack in simulated memory (so
// stack bit-flips corrupt return addresses), magic-number consistency
// asserts (so heap corruption panics the way production kernels do), and
// intrinsic calls into the kernel runtime (malloc, locks) whose fault hooks
// implement the allocation, copy-overrun, and synchronization fault models.
package kvm

import "fmt"

// Op is an opcode. The encoded instruction word is:
//
//	bits 0..7    op
//	bits 8..15   rd
//	bits 16..23  rs1
//	bits 24..31  rs2
//	bits 32..63  imm (signed 32-bit)
//
// Register fields are decoded modulo NumRegs, so a bit flip in a register
// field silently redirects the operand — the realistic outcome — rather
// than faulting. A bit flip in the op field may produce a different valid
// opcode or an illegal one (which traps, as on real hardware).
type Op uint8

const (
	OpNop    Op = iota
	OpMovI      // rd = imm (sign-extended)
	OpMovHi     // rd = (rd & 0xffffffff) | imm<<32
	OpMov       // rd = rs1
	OpAdd       // rd = rs1 + rs2
	OpSub       // rd = rs1 - rs2
	OpAddI      // rd = rs1 + imm
	OpAnd       // rd = rs1 & rs2
	OpOr        // rd = rs1 | rs2
	OpXor       // rd = rs1 ^ rs2
	OpShlI      // rd = rs1 << imm
	OpShrI      // rd = rs1 >> imm (logical)
	OpLd        // rd = mem64[rs1 + imm]
	OpSt        // mem64[rs1 + imm] = rs2
	OpLdB       // rd = mem8[rs1 + imm]
	OpStB       // mem8[rs1 + imm] = rs2
	OpBeq       // if rs1 == rs2: pc += imm
	OpBne       // if rs1 != rs2: pc += imm
	OpBlt       // if rs1 <  rs2 (signed): pc += imm
	OpBge       // if rs1 >= rs2 (signed): pc += imm
	OpBle       // if rs1 <= rs2 (signed): pc += imm
	OpBgt       // if rs1 >  rs2 (signed): pc += imm
	OpJmp       // pc += imm
	OpCall      // push pc+1; pc = imm (absolute)
	OpRet       // pc = pop()
	OpPush      // mem64[--sp] = rs1
	OpPop       // rd = mem64[sp++]
	OpIntr      // r0 = intrinsic(imm, r1, r2, r3)
	OpAssert    // if rs1 != rs2: kernel consistency panic
	OpHalt      // stop execution (top-level return)

	numOps // sentinel; ops >= numOps are illegal
)

var opNames = [...]string{
	OpNop: "nop", OpMovI: "movi", OpMovHi: "movhi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpAddI: "addi", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShlI: "shli", OpShrI: "shri", OpLd: "ld", OpSt: "st",
	OpLdB: "ldb", OpStB: "stb", OpBeq: "beq", OpBne: "bne", OpBlt: "blt",
	OpBge: "bge", OpBle: "ble", OpBgt: "bgt", OpJmp: "jmp", OpCall: "call",
	OpRet: "ret", OpPush: "push", OpPop: "pop", OpIntr: "intr",
	OpAssert: "assert", OpHalt: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o decodes to a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsBranch reports whether o is a conditional branch.
func (o Op) IsBranch() bool { return o >= OpBeq && o <= OpBgt }

// IsMemAccess reports whether o loads or stores through a base register.
func (o Op) IsMemAccess() bool {
	return o == OpLd || o == OpSt || o == OpLdB || o == OpStB
}

// NumRegs is the number of general-purpose registers. Register 15 is the
// stack pointer by convention (SP).
const NumRegs = 16

// SP is the conventional stack-pointer register.
const SP = 15

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Encode packs the instruction into its 64-bit word form.
func (i Instr) Encode() uint64 {
	return uint64(i.Op) |
		uint64(i.Rd)<<8 |
		uint64(i.Rs1)<<16 |
		uint64(i.Rs2)<<24 |
		uint64(uint32(i.Imm))<<32
}

// Decode unpacks an instruction word. Register fields are reduced modulo
// NumRegs; the opcode is preserved as-is so invalid opcodes can trap.
func Decode(w uint64) Instr {
	op, rd, rs1, rs2, imm := decodeFields(w)
	return Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

// decodeFields is the word layout, once: Decode wraps it in an Instr, and
// the interpreter loop takes the five fields as they are. The loop must
// not go through an Instr: the compiler builds that 8-byte struct on the
// stack with four byte stores and a dword store and copies it out with one
// 8-byte load, which cannot forward from the narrower stores and stalls
// on every instruction interpreted.
func decodeFields(w uint64) (op Op, rd, rs1, rs2 uint8, imm int32) {
	return Op(w), uint8(w>>8) % NumRegs, uint8(w>>16) % NumRegs,
		uint8(w>>24) % NumRegs, int32(w >> 32)
}

// String renders the instruction in a readable assembly-like form.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpRet, OpHalt:
		return i.Op.String()
	case OpMovI, OpMovHi:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs1)
	case OpAddI, OpShlI, OpShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpAdd, OpSub, OpAnd, OpOr, OpXor:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpLd, OpLdB:
		return fmt.Sprintf("%s r%d, [r%d%+d]", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpSt, OpStB:
		return fmt.Sprintf("%s [r%d%+d], r%d", i.Op, i.Rs1, i.Imm, i.Rs2)
	case OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt:
		return fmt.Sprintf("%s r%d, r%d, %+d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpJmp:
		return fmt.Sprintf("jmp %+d", i.Imm)
	case OpCall:
		return fmt.Sprintf("call %d", i.Imm)
	case OpPush:
		return fmt.Sprintf("push r%d", i.Rs1)
	case OpPop:
		return fmt.Sprintf("pop r%d", i.Rd)
	case OpIntr:
		return fmt.Sprintf("intr %d", i.Imm)
	case OpAssert:
		return fmt.Sprintf("assert r%d == r%d", i.Rs1, i.Rs2)
	default:
		return fmt.Sprintf("illegal(%d)", uint8(i.Op))
	}
}
