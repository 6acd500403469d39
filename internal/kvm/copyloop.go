package kvm

import "rio/internal/mmu"

// copyIdiom is one of the kernel's copy loops, bcopy's two inner loops and
// nearly all the instructions a crash run would otherwise interpret: while
// r3-r4 is at least margin more than the bound register (signed), copy the
// element of width bytes at r2+r4 to r1+r4 and step r4 by width; then go
// on at the instruction after the loop. Its words are position-independent,
// so one definition serves both sides: Asm.CopyLoop emits it and run
// recognises it by exact comparison, running whole iterations natively
// (copyIdiom.run).
type copyIdiom struct {
	words  [copyLen]uint64 // the loop, encoded
	width  int             // bytes an iteration copies and steps r4 by: 8 or 1
	bound  uint8           // the register r3-r4 is compared with
	margin uint64          // 0: runs while r3-r4 >= bound; 1: while r3-r4 > bound
}

// copyLen is the length of a copy loop in instructions, which is also the
// number of steps one iteration retires.
const copyLen = 8

// copyIdioms is the table of copy loops: bcopy's word loop, which aligned
// copies take while a whole word is left, and its byte loop, which takes
// the tail and every unaligned copy. Both start with the same word.
var copyIdioms = [...]copyIdiom{
	newCopyIdiom(8, 6, 0), // while r3-r4 >= r6: copy a word
	newCopyIdiom(1, 5, 1), // while r3-r4 > r5: copy a byte
}

func newCopyIdiom(width int, bound uint8, margin uint64) copyIdiom {
	exit, load, store := OpBlt, OpLd, OpSt
	if margin == 1 {
		exit = OpBle
	}
	if width == 1 {
		load, store = OpLdB, OpStB
	}
	code := [copyLen]Instr{
		{Op: OpSub, Rd: 7, Rs1: 3, Rs2: 4},             // r7 = r3 - r4
		{Op: exit, Rs1: 7, Rs2: bound, Imm: 6},         // if r7 is too small: leave the loop
		{Op: OpAdd, Rd: 8, Rs1: 2, Rs2: 4},             // r8 = src + i
		{Op: load, Rd: 9, Rs1: 8},                      // r9 = [r8]
		{Op: OpAdd, Rd: 8, Rs1: 1, Rs2: 4},             // r8 = dst + i
		{Op: store, Rs1: 8, Rs2: 9},                    // [r8] = r9
		{Op: OpAddI, Rd: 4, Rs1: 4, Imm: int32(width)}, // i += width
		{Op: OpJmp, Imm: -copyLen},                     // back to the top
	}
	c := copyIdiom{width: width, bound: bound, margin: margin}
	for i, in := range code {
		c.words[i] = in.Encode()
	}
	return c
}

// copyHead is the first word of every copy loop, the one run tests first.
var copyHead = copyIdioms[0].words[0]

// CopyLoop emits the copy loop of the given width (copyIdioms). It leaves
// the loop for the next instruction emitted after it.
func (a *Asm) CopyLoop(width int) {
	for i := range copyIdioms {
		if c := &copyIdioms[i]; c.width == width {
			for _, w := range c.words {
				a.emit(Decode(w))
			}
			return
		}
	}
	a.fail("no copy loop of width %d", width)
}

// copyIdiomAt returns the copy loop whose words, every one of them
// unmutated, are at pc, or nil.
func copyIdiomAt(words []uint64, pc int) *copyIdiom {
	if pc < 0 || pc+copyLen > len(words) {
		return nil
	}
	at := [copyLen]uint64(words[pc:])
	for i := range copyIdioms {
		if copyIdioms[i].words == at {
			return &copyIdioms[i]
		}
	}
	return nil
}

// run runs up to room whole iterations of the copy loop at pc, as many as
// its condition allows, through mmu.CopyWords. It leaves the registers as
// interpreting them would, and returns the instructions that retired: 8
// per iteration, plus 4 or 6 for the load or store that trapped, with the
// exception the interpreter would have raised there.
func (c *copyIdiom) run(u *mmu.MMU, r *[NumRegs]uint64, pc int, room uint64) (steps uint64, exc *Exception) {
	remaining, bound := r[3]-r[4], r[c.bound]
	if int64(remaining) < int64(bound) || remaining-bound < c.margin {
		return 0, nil
	}
	// Iteration j runs while remaining-w·j-bound >= margin; in exact
	// arithmetic that is j <= (remaining-bound-margin)/w, which the uint64
	// difference holds.
	w := uint64(c.width)
	k := min((remaining-bound-c.margin)/w+1, room)
	if k == 0 {
		return 0, nil
	}
	i := r[4]
	n, last, trap := u.CopyWords(r[1]+i, r[2]+i, int(k), c.width)
	if n > 0 || trap != nil && trap.Write {
		r[9] = last
	}
	if trap == nil {
		i += w * uint64(n-1) // the last iteration's index
		r[4], r[7], r[8] = i+w, r[3]-i, r[1]+i
		return copyLen * uint64(n), nil
	}
	i += w * uint64(n) // the iteration that trapped
	r[4], r[7] = i, r[3]-i
	if trap.Write {
		r[8] = r[1] + i
		return copyLen*uint64(n) + 6, &Exception{Kind: ExcTrap, PC: pc + 5, Trap: trap}
	}
	r[8] = r[2] + i
	return copyLen*uint64(n) + 4, &Exception{Kind: ExcTrap, PC: pc + 3, Trap: trap}
}
