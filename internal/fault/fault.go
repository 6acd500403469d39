// Package fault implements the paper's thirteen fault models (§3.1).
//
// The models fall into three groups, mirroring the paper's taxonomy:
//
//	bit flips        — kernel text, heap, and stack bit flips
//	low-level faults — corrupt source/destination registers, delete
//	                   branches, delete random instructions
//	high-level faults— imitations of specific C programming errors:
//	                   missing initialisation, corrupted pointers,
//	                   premature free (allocation management), bcopy
//	                   overruns, off-by-one comparisons, and elided lock
//	                   operations (synchronization)
//
// Text-level faults mutate the kernel's instruction words in place, exactly
// as the paper's injector modified Digital Unix object code. Behavioural
// faults (allocation, copy overrun, synchronization) arm hooks on the
// kernel runtime that fire on a random cadence during subsequent execution.
package fault

import (
	"fmt"
	"strings"

	"rio/internal/kernel"
	"rio/internal/kvm"
	"rio/internal/machine"
	"rio/internal/sim"
)

// Type enumerates the fault models.
type Type int

const (
	TextFlip     Type = iota // flip a bit in kernel text
	HeapFlip                 // flip a bit in the kernel heap
	StackFlip                // flip a bit in the kernel stack
	DestReg                  // change an instruction's destination register
	SrcReg                   // change an instruction's source register
	DeleteBranch             // delete a branch instruction
	DeleteRandom             // delete a random instruction
	Init                     // delete a procedure's initialisation prologue
	Pointer                  // delete the instruction computing a base register
	Alloc                    // malloc prematurely frees the new block
	CopyOverrun              // bcopy copies extra bytes
	OffByOne                 // > becomes >=, < becomes <=, and so on
	Sync                     // lock acquire/release elided

	NumTypes // sentinel
)

// AllTypes lists every fault model, in the paper's Table 1 order.
var AllTypes = []Type{
	TextFlip, HeapFlip, StackFlip,
	DestReg, SrcReg, DeleteBranch, DeleteRandom,
	Init, Pointer, Alloc, CopyOverrun, OffByOne, Sync,
}

var typeNames = [...]string{
	"kernel text", "kernel heap", "kernel stack",
	"destination reg", "source reg", "delete branch", "delete random inst",
	"initialization", "pointer", "allocation", "copy overrun",
	"off-by-one", "synchronization",
}

func (t Type) String() string {
	if t >= 0 && int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ByName resolves a fault model from its name, spelled with spaces as
// String gives it ("kernel text") or with hyphens as rio does
// ("kernel-text").
func ByName(name string) (Type, bool) {
	for _, t := range AllTypes {
		if s := t.String(); name == s || name == strings.ReplaceAll(s, " ", "-") {
			return t, true
		}
	}
	return 0, false
}

// MarshalText makes a Type its name in JSON.
func (t Type) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// Count is how many faults one run injects (the paper injects 20 per run
// to raise the odds that one is triggered).
const Count = 20

// Inject applies Count faults of type t to a booted machine. Text faults
// mutate m.Text immediately; behavioural faults arm runtime hooks whose
// cadence is scaled to this simulator's call volumes (the paper's "every
// 1000-4000 calls ≈ every 15 seconds" on a real kernel).
//
// Structural text faults (register rewrites, deleted instructions,
// off-by-one swaps) are capped at a density proportional to this kernel's
// text size: the paper's 20 faults land in millions of instructions, most
// never executed before the crash, while every instruction here runs on
// every operation.
func Inject(m *machine.Machine, t Type, rng *sim.Rand) error {
	structural := Count
	if max := 1 + m.Text.Len()/64; structural > max {
		structural = max
	}
	switch t {
	case TextFlip:
		all := make([]int, m.Text.Len())
		for pc := range all {
			all[pc] = pc
		}
		for i := 0; i < Count; i++ {
			m.Text.FlipBit(pickPC(m, rng, all), uint(rng.Intn(64)))
		}
	case HeapFlip:
		// Target live kernel objects (buffer headers, allocator chain),
		// as in a real kernel whose heap is dense with such structures.
		blocks := m.Kernel.Heap.AllocatedBlocks()
		for i := 0; i < Count; i++ {
			var addr uint64
			if len(blocks) > 0 && rng.Float64() < 0.8 {
				b := blocks[rng.Intn(len(blocks))]
				// Include the 16-byte header preceding the payload.
				addr = b[0] - 16 + uint64(rng.Intn(int(b[1])+16))
			} else {
				addr = kernel.HeapBase + uint64(rng.Intn(kernel.HeapSize))
			}
			m.Mem.FlipBit(kernel.HeapPhys(addr), uint(rng.Intn(8)))
		}
	case StackFlip:
		armStackFlip(m, rng)
	case DestReg:
		mutateInstrs(m, structural, rng, hasDest, func(in *kvm.Instr) {
			in.Rd = uint8(rng.Intn(kvm.NumRegs))
		})
	case SrcReg:
		mutateInstrs(m, structural, rng, hasSource, func(in *kvm.Instr) {
			if rng.Bool() {
				in.Rs1 = uint8(rng.Intn(kvm.NumRegs))
			} else {
				in.Rs2 = uint8(rng.Intn(kvm.NumRegs))
			}
		})
	case DeleteBranch:
		mutateInstrs(m, structural, rng,
			func(in kvm.Instr) bool { return in.Op.IsBranch() || in.Op == kvm.OpJmp },
			func(in *kvm.Instr) { *in = kvm.Instr{Op: kvm.OpNop} })
	case DeleteRandom:
		all := make([]int, m.Text.Len())
		for pc := range all {
			all[pc] = pc
		}
		for i := 0; i < structural; i++ {
			m.Text.SetWord(pickPC(m, rng, all), kvm.Instr{Op: kvm.OpNop}.Encode())
		}
	case Init:
		var entries []int
		for _, p := range m.Text.Procs() {
			entries = append(entries, p.Entry)
		}
		for i := 0; i < structural; i++ {
			entry := pickPC(m, rng, entries)
			p, _ := m.Text.ProcAt(entry)
			for pc := p.Entry; pc < p.Entry+p.Prolog; pc++ {
				m.Text.SetWord(pc, kvm.Instr{Op: kvm.OpNop}.Encode())
			}
		}
	case Pointer:
		injectPointer(m, structural, rng)
	case Alloc:
		armAllocFault(m, rng)
	case CopyOverrun:
		armCopyOverrun(m, rng)
	case OffByOne:
		// Branch-level proportionality: nearly half of this kernel's
		// relational comparisons guard file-cache copy boundaries, where
		// a swapped <= silently moves one extra byte on *every* copy. In
		// a real kernel such guard branches are a minuscule fraction of
		// all comparisons, so an off-by-one fault almost never lands on
		// one. Two mutations with a 97% ballast preference keep the
		// per-guard exposure at the paper's scale (see DESIGN.md §4b).
		n := structural
		if n > 2 {
			n = 2
		}
		mutateInstrsBias(m, n, rng, 0.97,
			func(in kvm.Instr) bool { return relationalSwap(in.Op) != in.Op },
			func(in *kvm.Instr) { in.Op = relationalSwap(in.Op) })
	case Sync:
		armSyncFault(m, rng)
	default:
		return fmt.Errorf("fault: unknown type %d", t)
	}
	return nil
}

// BallastBias is the probability that a text-targeting fault lands in the
// kernel's background (ballast) code rather than the file-cache data path.
// The simulated kernel's text is roughly half data path by construction;
// in Digital Unix the data path was a vanishing fraction of millions of
// instructions, so a uniformly placed fault almost always hit unrelated
// code. The bias restores that proportion without inflating the simulator.
const BallastBias = 0.85

// ballastStart returns the first instruction address of the ballast
// region (procedures after the core file-cache path).
func ballastStart(m *machine.Machine) int {
	if p, ok := m.Text.Proc(kernel.BallastProcs[0]); ok {
		return p.Entry
	}
	return m.Text.Len()
}

// pickPC selects a fault site from candidates with the ballast bias.
func pickPC(m *machine.Machine, rng *sim.Rand, candidates []int) int {
	return pickPCBias(m, rng, candidates, BallastBias)
}

// pickPCBias selects a fault site preferring ballast code with the given
// probability.
func pickPCBias(m *machine.Machine, rng *sim.Rand, candidates []int, bias float64) int {
	split := ballastStart(m)
	var core, ballast []int
	for _, pc := range candidates {
		if pc >= split {
			ballast = append(ballast, pc)
		} else {
			core = append(core, pc)
		}
	}
	if len(ballast) > 0 && (len(core) == 0 || rng.Float64() < bias) {
		return ballast[rng.Intn(len(ballast))]
	}
	return core[rng.Intn(len(core))]
}

func hasDest(in kvm.Instr) bool {
	switch in.Op {
	case kvm.OpMovI, kvm.OpMovHi, kvm.OpMov, kvm.OpAdd, kvm.OpSub,
		kvm.OpAddI, kvm.OpAnd, kvm.OpOr, kvm.OpXor, kvm.OpShlI,
		kvm.OpShrI, kvm.OpLd, kvm.OpLdB, kvm.OpPop:
		return true
	}
	return false
}

func hasSource(in kvm.Instr) bool {
	switch in.Op {
	case kvm.OpMov, kvm.OpAdd, kvm.OpSub, kvm.OpAddI, kvm.OpAnd, kvm.OpOr,
		kvm.OpXor, kvm.OpShlI, kvm.OpShrI, kvm.OpLd, kvm.OpSt, kvm.OpLdB,
		kvm.OpStB, kvm.OpPush:
		return true
	}
	return false
}

// relationalSwap swaps strict and non-strict comparisons (the off-by-one
// fault: > vs >=, < vs <=). Non-relational ops map to themselves.
func relationalSwap(op kvm.Op) kvm.Op {
	switch op {
	case kvm.OpBlt:
		return kvm.OpBle
	case kvm.OpBle:
		return kvm.OpBlt
	case kvm.OpBgt:
		return kvm.OpBge
	case kvm.OpBge:
		return kvm.OpBgt
	}
	return op
}

// mutateInstrs rewrites up to count instructions matched by sel.
func mutateInstrs(m *machine.Machine, count int, rng *sim.Rand,
	sel func(kvm.Instr) bool, mutate func(*kvm.Instr)) {
	mutateInstrsBias(m, count, rng, BallastBias, sel, mutate)
}

// mutateInstrsBias is mutateInstrs with an explicit ballast preference.
func mutateInstrsBias(m *machine.Machine, count int, rng *sim.Rand, bias float64,
	sel func(kvm.Instr) bool, mutate func(*kvm.Instr)) {
	// Collect candidates once; mutations may overlap, as real injectors'
	// do.
	var candidates []int
	for pc := 0; pc < m.Text.Len(); pc++ {
		if sel(m.Text.At(pc)) {
			candidates = append(candidates, pc)
		}
	}
	if len(candidates) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		pc := pickPCBias(m, rng, candidates, bias)
		in := m.Text.At(pc)
		mutate(&in)
		m.Text.SetWord(pc, in.Encode())
	}
}

// injectPointer implements the pointer-corruption model: find a load or
// store, then delete the most recent prior instruction that modifies its
// base register (never the stack pointer, which the paper excludes).
func injectPointer(m *machine.Machine, count int, rng *sim.Rand) {
	type site struct{ def int }
	var sites []site
	for pc := 0; pc < m.Text.Len(); pc++ {
		in := m.Text.At(pc)
		if !in.Op.IsMemAccess() || in.Rs1 == kvm.SP {
			continue
		}
		base := in.Rs1
		proc, ok := m.Text.ProcAt(pc)
		if !ok {
			continue
		}
		for back := pc - 1; back >= proc.Entry; back-- {
			prev := m.Text.At(back)
			if hasDest(prev) && prev.Rd == base {
				sites = append(sites, site{def: back})
				break
			}
		}
	}
	if len(sites) == 0 {
		return
	}
	defs := make([]int, len(sites))
	for i, s := range sites {
		defs[i] = s.def
	}
	for i := 0; i < count; i++ {
		m.Text.SetWord(pickPC(m, rng, defs), kvm.Instr{Op: kvm.OpNop}.Encode())
	}
}

// armStackFlip flips bits in the *live* portion of the kernel stack —
// saved return addresses and spilled registers above the current SP — at
// procedure entries. Flipping only between operations would be harmless
// here (each kernel entry rebuilds its frames), unlike a real kernel whose
// stacks hold long-lived interrupted frames; the hook recreates the
// paper's exposure.
func armStackFlip(m *machine.Machine, rng *sim.Rand) {
	next := rng.Range(80, 320)
	hook := func(v *kvm.VM) {
		next--
		if next > 0 {
			return
		}
		next = rng.Range(80, 320)
		sp := v.Reg[kvm.SP]
		if sp < kernel.StackLimit || sp >= kernel.StackTop {
			return
		}
		live := int(kernel.StackTop - sp)
		if live <= 0 {
			return
		}
		for i := 0; i < 4; i++ {
			addr := sp + uint64(rng.Intn(live))
			m.Mem.FlipBit(kernel.StackPhys(addr), uint(rng.Intn(8)))
		}
	}
	// Hook every procedure that is reached by call (pushes frames).
	for _, p := range m.Text.Procs() {
		m.Kernel.VM.EntryHooks[p.Entry] = hook
	}
}

// armAllocFault makes malloc occasionally free the block it just returned
// after a short delay. The cadence is scaled down from the paper's
// 1000-4000 calls to this simulator's allocation volume.
func armAllocFault(m *machine.Machine, rng *sim.Rand) {
	// The paper's fault fires every 1000-4000 malloc calls — roughly once
	// per 15-second pre-crash window. The first firing lands early in the
	// run; repeats are much rarer.
	next := rng.Range(15, 60)
	m.Kernel.Heap.PrematureFree = func() int {
		next--
		if next <= 0 {
			next = rng.Range(120, 480)
			return rng.Range(1, 3) // free after 1-3 further mallocs
		}
		return 0
	}
}

// armCopyOverrun hooks bcopy's entry and occasionally inflates its length
// argument. The overrun length distribution follows the paper: 50% one
// byte, 44% 2-1024 bytes, 6% 2-4 KB.
func armCopyOverrun(m *machine.Machine, rng *sim.Rand) {
	proc := m.Text.MustProc("bcopy")
	next := rng.Range(150, 600)
	m.Kernel.VM.EntryHooks[proc.Entry] = func(v *kvm.VM) {
		next--
		if next > 0 {
			return
		}
		next = rng.Range(600, 2400) // repeats are rare, as in the paper

		var overrun int
		switch p := rng.Float64(); {
		case p < 0.50:
			overrun = 1
		case p < 0.94:
			overrun = rng.Range(2, 1024)
		default:
			overrun = rng.Range(2048, 4096)
		}
		v.Reg[3] += uint64(overrun) // r3 is bcopy's length argument
	}
}

// armSyncFault randomly elides lock acquires/releases.
func armSyncFault(m *machine.Machine, rng *sim.Rand) {
	m.Kernel.Locks.ElideAcquire = func() bool { return rng.Float64() < 0.05 }
	m.Kernel.Locks.ElideRelease = func() bool { return rng.Float64() < 0.05 }
}
