package kvm

import "rio/internal/mmu"

// copyLoop is the kernel's word-copy loop, bcopy's inner loop and three
// quarters of the instructions a crash run interprets: while r3-r4 >= r6
// (signed), copy the word at r2+r4 to r1+r4 and step r4 by 8; then go on
// at the instruction after the loop. Its words are position-independent,
// so one definition serves both sides: Asm.CopyLoop emits it and run
// recognises it by exact comparison, running whole iterations natively.
var copyLoop = [...]Instr{
	{Op: OpSub, Rd: 7, Rs1: 3, Rs2: 4},  // r7 = r3 - r4
	{Op: OpBlt, Rs1: 7, Rs2: 6, Imm: 6}, // if r7 < r6: leave the loop
	{Op: OpAdd, Rd: 8, Rs1: 2, Rs2: 4},  // r8 = src + i
	{Op: OpLd, Rd: 9, Rs1: 8},           // r9 = [r8]
	{Op: OpAdd, Rd: 8, Rs1: 1, Rs2: 4},  // r8 = dst + i
	{Op: OpSt, Rs1: 8, Rs2: 9},          // [r8] = r9
	{Op: OpAddI, Rd: 4, Rs1: 4, Imm: 8}, // i += 8
	{Op: OpJmp, Imm: -8},                // back to the top
}

// copyLoopWords is copyLoop encoded.
var copyLoopWords = func() (w [len(copyLoop)]uint64) {
	for i, in := range copyLoop {
		w[i] = in.Encode()
	}
	return w
}()

// CopyLoop emits the word-copy loop (copyLoop). It leaves the loop for the
// next instruction emitted after it.
func (a *Asm) CopyLoop() {
	for _, in := range copyLoop {
		a.emit(in)
	}
}

// isCopyLoop reports whether the words at pc are the word-copy loop, every
// one of them unmutated.
func isCopyLoop(words []uint64, pc int) bool {
	return pc >= 0 && pc+len(copyLoopWords) <= len(words) &&
		[len(copyLoopWords)]uint64(words[pc:]) == copyLoopWords
}

// runCopyLoop runs up to room whole iterations of the word-copy loop at pc,
// as many as its condition allows, through mmu.CopyWords. It leaves the
// registers as interpreting them would, and returns the instructions that
// retired: 8 per iteration, plus 4 or 6 for the load or store that trapped,
// with the exception the interpreter would have raised there.
func runCopyLoop(u *mmu.MMU, r *[NumRegs]uint64, pc int, room uint64) (steps uint64, exc *Exception) {
	remaining, stride := r[3]-r[4], r[6]
	if int64(remaining) < int64(stride) {
		return 0, nil
	}
	// Iteration j runs while remaining-8j >= stride; in exact arithmetic
	// that is j <= (remaining-stride)/8, which the uint64 difference holds.
	k := min((remaining-stride)/8+1, room)
	if k == 0 {
		return 0, nil
	}
	i := r[4]
	n, last, trap := u.CopyWords(r[1]+i, r[2]+i, int(k))
	if n > 0 || trap != nil && trap.Write {
		r[9] = last
	}
	if trap == nil {
		i += 8 * uint64(n-1) // the last iteration's index
		r[4], r[7], r[8] = i+8, r[3]-i, r[1]+i
		return 8 * uint64(n), nil
	}
	i += 8 * uint64(n) // the iteration that trapped
	r[4], r[7] = i, r[3]-i
	if trap.Write {
		r[8] = r[1] + i
		return 8*uint64(n) + 6, &Exception{Kind: ExcTrap, PC: pc + 5, Trap: trap}
	}
	r[8] = r[2] + i
	return 8*uint64(n) + 4, &Exception{Kind: ExcTrap, PC: pc + 3, Trap: trap}
}
