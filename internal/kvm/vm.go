package kvm

import (
	"fmt"

	"rio/internal/mmu"
)

// ExceptionKind classifies why execution stopped abnormally. Each kind maps
// onto a crash manifestation observed in the paper's experiments.
type ExceptionKind int

const (
	// ExcTrap is an MMU trap (illegal address or protection violation).
	// On a 64-bit machine most injected faults die here first.
	ExcTrap ExceptionKind = iota
	// ExcIllegalInstr is a fetch of an undecodable opcode or a PC outside
	// kernel text (e.g. a corrupted return address).
	ExcIllegalInstr
	// ExcAssert is a failed kernel consistency check (OpAssert) — the
	// "kernel consistency error messages" of the paper.
	ExcAssert
	// ExcBudget means the instruction budget was exhausted: the kernel is
	// spinning or deadlocked. Treated as a hang/watchdog crash.
	ExcBudget
	// ExcIntrinsic is a panic raised by an intrinsic (allocator
	// consistency check, lock owner mismatch, ...).
	ExcIntrinsic
	// ExcStackOverflow is SP running off the kernel stack.
	ExcStackOverflow
)

func (k ExceptionKind) String() string {
	switch k {
	case ExcTrap:
		return "mmu trap"
	case ExcIllegalInstr:
		return "illegal instruction"
	case ExcAssert:
		return "consistency check failed"
	case ExcBudget:
		return "instruction budget exceeded (hang)"
	case ExcIntrinsic:
		return "intrinsic panic"
	case ExcStackOverflow:
		return "kernel stack overflow"
	default:
		return fmt.Sprintf("ExceptionKind(%d)", int(k))
	}
}

// Exception describes abnormal termination of kernel execution.
type Exception struct {
	Kind   ExceptionKind
	PC     int
	Trap   *mmu.Trap // set when Kind == ExcTrap
	Reason string    // human-readable detail
}

func (e *Exception) Error() string {
	s := fmt.Sprintf("kvm: %s at pc=%d", e.Kind, e.PC)
	if e.Trap != nil {
		s += ": " + e.Trap.Error()
	}
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	return s
}

// Intrinsics is the kernel runtime interface the VM calls through OpIntr.
// The handler reads arguments from vm.Reg[1..3], writes any result to
// vm.Reg[0], and returns a non-nil Exception to panic the kernel.
type Intrinsics interface {
	Intrinsic(vm *VM, num int32) *Exception
}

// retSentinel is the return address pushed by Exec; popping it ends the
// run. It is far outside any text range, so if a corrupted return address
// overwrites it the fetch traps instead.
const retSentinel = uint64(1) << 62

// VM executes kernel procedures.
type VM struct {
	Text *Text
	MMU  *mmu.MMU
	Reg  [NumRegs]uint64

	// Intr handles OpIntr instructions; nil makes OpIntr an illegal
	// instruction.
	Intr Intrinsics

	// EntryHooks run when the PC enters the keyed address at a call; fault
	// models use them (e.g. the copy-overrun fault inflates bcopy's length
	// argument at its entry).
	EntryHooks map[int]func(*VM)

	// Budget is the maximum number of instructions one Exec may retire
	// before it is declared hung. Zero means DefaultBudget.
	Budget uint64

	// Steps counts instructions retired across all Execs (CPU accounting).
	Steps uint64

	// Trace, when non-nil, records retired instructions and stores for
	// post-mortem fault-propagation analysis.
	Trace *Tracer

	// RegNoise, when non-nil, overwrites most non-argument registers with
	// pseudo-random garbage at each Exec. Between two top-level kernel
	// entries a real kernel's register file has been churned by
	// scheduler, interrupt, and unrelated-subsystem code; without noise,
	// this small kernel's registers would unrealistically always hold
	// recent file-cache pointers, inflating the damage stale-register
	// faults can do. Crash campaigns set this; unit tests leave it nil.
	RegNoise func() (val uint64, use bool)

	stackTop   uint64 // initial SP for each Exec
	stackLimit uint64 // lowest legal SP
	pc         int
}

// DefaultBudget is the per-Exec instruction cap: generous enough for any
// legitimate kernel operation on an 8 KB block, small enough to detect
// runaway loops quickly. It plays the role of the paper's ten-minute
// timeout after which a non-crashing run is discarded.
const DefaultBudget = 2_000_000

// New returns a VM executing text against the given MMU.
func New(text *Text, u *mmu.MMU) *VM {
	return &VM{Text: text, MMU: u, EntryHooks: make(map[int]func(*VM))}
}

// SetStack configures the kernel stack: top is the initial SP (stacks grow
// down), limit is the lowest address SP may reach.
func (v *VM) SetStack(top, limit uint64) {
	if top <= limit {
		panic("kvm: stack top must exceed limit")
	}
	v.stackTop, v.stackLimit = top, limit
}

// PC returns the current program counter (for post-mortem inspection).
func (v *VM) PC() int { return v.pc }

// Exec runs the named procedure with args in r1..rN until it returns,
// halts, or raises an exception. Registers other than SP and the argument
// registers deliberately retain their previous (stale) contents — that is
// what makes the "initialization" fault model dangerous, as in a real
// kernel where uninitialised locals hold whatever the last frame left.
func (v *VM) Exec(proc string, args ...uint64) *Exception {
	if err := v.enter(proc, args); err != nil {
		return err
	}
	return v.run()
}

// enter sets the machine up to run proc: arguments, register noise, stack
// pointer, PC and the return sentinel.
func (v *VM) enter(proc string, args []uint64) *Exception {
	p, ok := v.Text.Proc(proc)
	if !ok {
		panic(fmt.Sprintf("kvm: Exec of unknown procedure %q", proc))
	}
	if len(args) > 14 {
		panic("kvm: too many arguments")
	}
	if v.RegNoise != nil {
		for r := len(args) + 1; r < SP; r++ {
			if val, use := v.RegNoise(); use {
				v.Reg[r] = val
			}
		}
	}
	for i, a := range args {
		v.Reg[1+i] = a
	}
	v.Reg[SP] = v.stackTop
	v.pc = p.Entry
	return v.push(v.pc, retSentinel)
}

// push and pop take the PC to report a stack fault at: run keeps its PC in
// a local.
func (v *VM) push(pc int, val uint64) *Exception {
	sp := v.Reg[SP] - 8
	if sp < v.stackLimit {
		return &Exception{Kind: ExcStackOverflow, PC: pc}
	}
	if trap := v.MMU.Store64(sp, val); trap != nil {
		return &Exception{Kind: ExcTrap, PC: pc, Trap: trap}
	}
	v.Reg[SP] = sp
	return nil
}

func (v *VM) pop(pc int) (uint64, *Exception) {
	val, trap := v.MMU.Load64(v.Reg[SP])
	if trap != nil {
		return 0, &Exception{Kind: ExcTrap, PC: pc, Trap: trap}
	}
	v.Reg[SP] += 8
	return val, nil
}

// run is the interpreter loop, the hot path of every crash campaign. The
// PC and the step count live in locals for the length of the loop; stop
// writes them back on every way out, and they are written back before an
// entry hook or an intrinsic runs — the only other code that can observe
// them mid-run. (Tracer.record sees only the entry it is handed.)
func (v *VM) run() *Exception {
	budget := v.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	words, u, r := v.Text.words, v.MMU, &v.Reg
	pc, steps := v.pc, v.Steps
	for n := uint64(0); ; n++ {
		if n >= budget {
			return v.stop(pc, steps, &Exception{Kind: ExcBudget, PC: pc})
		}
		if uint(pc) >= uint(len(words)) {
			return v.stop(pc, steps, &Exception{Kind: ExcIllegalInstr, PC: pc,
				Reason: "pc outside kernel text"})
		}
		word := words[pc]
		op, rd, rs1, rs2, imm := decodeFields(word)
		if !op.Valid() {
			return v.stop(pc, steps, &Exception{Kind: ExcIllegalInstr, PC: pc,
				Reason: fmt.Sprintf("opcode %d", uint8(op))})
		}
		steps++
		next := pc + 1

		if v.Trace != nil {
			e := TraceEntry{PC: pc, Word: word}
			switch op {
			case OpSt:
				e.Store = true
				e.Addr = r[rs1] + uint64(int64(imm))
				e.Val = r[rs2]
			case OpStB:
				e.Store = true
				e.Addr = r[rs1] + uint64(int64(imm))
				e.Val = uint64(byte(r[rs2]))
			case OpPush:
				e.Store = true
				e.Addr = r[SP] - 8
				e.Val = r[rs1]
			}
			v.Trace.record(e)
		}

		switch op {
		case OpNop:
		case OpMovI:
			r[rd] = uint64(int64(imm))
		case OpMovHi:
			r[rd] = (r[rd] & 0xffffffff) | uint64(uint32(imm))<<32
		case OpMov:
			r[rd] = r[rs1]
		case OpAdd:
			r[rd] = r[rs1] + r[rs2]
		case OpSub:
			r[rd] = r[rs1] - r[rs2]
		case OpAddI:
			r[rd] = r[rs1] + uint64(int64(imm))
		case OpAnd:
			r[rd] = r[rs1] & r[rs2]
		case OpOr:
			r[rd] = r[rs1] | r[rs2]
		case OpXor:
			r[rd] = r[rs1] ^ r[rs2]
		case OpShlI:
			r[rd] = r[rs1] << (uint32(imm) & 63)
		case OpShrI:
			r[rd] = r[rs1] >> (uint32(imm) & 63)
		case OpLd:
			val, trap := u.Load64(r[rs1] + uint64(int64(imm)))
			if trap != nil {
				return v.stop(pc, steps, &Exception{Kind: ExcTrap, PC: pc, Trap: trap})
			}
			r[rd] = val
		case OpSt:
			if trap := u.Store64(r[rs1]+uint64(int64(imm)), r[rs2]); trap != nil {
				return v.stop(pc, steps, &Exception{Kind: ExcTrap, PC: pc, Trap: trap})
			}
		case OpLdB:
			val, trap := u.LoadByte(r[rs1] + uint64(int64(imm)))
			if trap != nil {
				return v.stop(pc, steps, &Exception{Kind: ExcTrap, PC: pc, Trap: trap})
			}
			r[rd] = uint64(val)
		case OpStB:
			if trap := u.StoreByte(r[rs1]+uint64(int64(imm)), byte(r[rs2])); trap != nil {
				return v.stop(pc, steps, &Exception{Kind: ExcTrap, PC: pc, Trap: trap})
			}
		case OpBeq:
			if r[rs1] == r[rs2] {
				next = pc + 1 + int(imm)
			}
		case OpBne:
			if r[rs1] != r[rs2] {
				next = pc + 1 + int(imm)
			}
		case OpBlt:
			if int64(r[rs1]) < int64(r[rs2]) {
				next = pc + 1 + int(imm)
			}
		case OpBge:
			if int64(r[rs1]) >= int64(r[rs2]) {
				next = pc + 1 + int(imm)
			}
		case OpBle:
			if int64(r[rs1]) <= int64(r[rs2]) {
				next = pc + 1 + int(imm)
			}
		case OpBgt:
			if int64(r[rs1]) > int64(r[rs2]) {
				next = pc + 1 + int(imm)
			}
		case OpJmp:
			next = pc + 1 + int(imm)
		case OpCall:
			if err := v.push(pc, uint64(pc+1)); err != nil {
				return v.stop(pc, steps, err)
			}
			next = int(imm)
			// Only fault models install hooks; most runs have none.
			if len(v.EntryHooks) != 0 {
				if hook := v.EntryHooks[next]; hook != nil {
					v.pc, v.Steps = pc, steps
					hook(v)
					words, u, steps = v.Text.words, v.MMU, v.Steps
				}
			}
		case OpRet:
			ret, err := v.pop(pc)
			if err != nil {
				return v.stop(pc, steps, err)
			}
			if ret == retSentinel {
				return v.stop(pc, steps, nil)
			}
			next = int(ret)
		case OpPush:
			if err := v.push(pc, r[rs1]); err != nil {
				return v.stop(pc, steps, err)
			}
		case OpPop:
			val, err := v.pop(pc)
			if err != nil {
				return v.stop(pc, steps, err)
			}
			r[rd] = val
		case OpIntr:
			if v.Intr == nil {
				return v.stop(pc, steps, &Exception{Kind: ExcIllegalInstr, PC: pc,
					Reason: "intrinsic with no handler"})
			}
			// Intrinsics see the post-instruction PC and may re-enter Exec;
			// whatever they leave behind is where this run carries on.
			v.pc, v.Steps = next, steps
			if exc := v.Intr.Intrinsic(v, imm); exc != nil {
				return exc
			}
			words, u, pc, steps = v.Text.words, v.MMU, v.pc, v.Steps
			continue
		case OpAssert:
			if r[rs1] != r[rs2] {
				return v.stop(pc, steps, &Exception{Kind: ExcAssert, PC: pc,
					Reason: fmt.Sprintf("r%d(%#x) != r%d(%#x)",
						rs1, r[rs1], rs2, r[rs2])})
			}
		case OpHalt:
			return v.stop(pc, steps, nil)
		}
		pc = next
	}
}

// stop writes run's local PC and step count back and passes exc through.
func (v *VM) stop(pc int, steps uint64, exc *Exception) *Exception {
	v.pc, v.Steps = pc, steps
	return exc
}
