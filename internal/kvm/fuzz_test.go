package kvm

import (
	"testing"

	"rio/internal/mem"
	"rio/internal/mmu"
)

// splitmix64 for the fuzz streams (local copy; sim would be an import
// cycle risk and the stream here needs no stability guarantees).
func next(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomText is a procedure "fuzz" of 4..63 random instruction words.
func randomText(seed *uint64) *Text {
	n := 4 + int(next(seed)%60)
	a := NewAsm()
	a.Proc("fuzz")
	for i := 0; i < n; i++ {
		a.Nop()
	}
	a.Halt()
	text := a.MustAssemble()
	for pc := 0; pc < n; pc++ {
		text.SetWord(pc, next(seed))
	}
	return text
}

// mutatedText is realistic text — a program "main" with calls, loops and
// stack traffic — with one to six random bits flipped.
func mutatedText(seed *uint64) *Text {
	a := NewAsm()
	a.Proc("leaf")
	a.Add(0, 1, 2)
	a.Ret()
	a.Proc("main")
	a.MovI(1, 0)
	a.MovI(2, 64)
	a.EndProlog()
	loop := a.Here()
	a.Push(1)
	a.Call("leaf")
	a.Pop(1)
	a.St(15, -8, 0) // scribble near SP (legal)
	a.AddI(1, 1, 1)
	a.Blt(1, 2, loop)
	a.Ret()
	text := a.MustAssemble()
	for k := 0; k < 1+int(next(seed)%6); k++ {
		pc := int(next(seed)) % text.Len()
		if pc < 0 {
			pc = -pc
		}
		text.FlipBit(pc%text.Len(), uint(next(seed)%64))
	}
	return text
}

// fuzzVM is a VM over text with four mapped pages, the top one its stack.
func fuzzVM(text *Text) *VM {
	m := mem.New(16 * mem.PageSize)
	u := mmu.New(m)
	for p := 0; p < 4; p++ {
		u.Map(uint64(p), p, true)
	}
	v := New(text, u)
	v.SetStack(4*mem.PageSize, 3*mem.PageSize)
	return v
}

// TestInterpreterTotalOnRandomText is the fault injector's safety net: the
// VM must never Go-panic, hang, or escape its sandbox no matter what the
// instruction words contain — fault injection mutates text arbitrarily,
// and every outcome must be a clean exception or normal completion.
func TestInterpreterTotalOnRandomText(t *testing.T) {
	seed := uint64(0xF0CC)
	for round := 0; round < 400; round++ {
		v := fuzzVM(randomText(&seed))
		v.Budget = 50_000
		// Poison registers so random code has lively inputs.
		for r := range v.Reg {
			v.Reg[r] = next(&seed)
		}
		exc := v.Exec("fuzz") // must return, never panic or run away
		_ = exc
	}
}

// TestInterpreterTotalOnMutatedKernel fuzzes realistic text: random bit
// flips over an assembled program with calls, loops and stack traffic.
func TestInterpreterTotalOnMutatedKernel(t *testing.T) {
	seed := uint64(0xBEEF)
	for round := 0; round < 600; round++ {
		v := fuzzVM(mutatedText(&seed))
		v.Budget = 100_000
		_ = v.Exec("main")
	}
}
