package fault

import (
	"testing"

	"rio/internal/fs"
	"rio/internal/kvm"
	"rio/internal/machine"
	"rio/internal/sim"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func textWords(m *machine.Machine) []uint64 {
	out := make([]uint64, m.Text.Len())
	for i := range out {
		out[i] = m.Text.Word(i)
	}
	return out
}

func diffCount(a, b []uint64) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestTypeStrings(t *testing.T) {
	if len(AllTypes) != 13 {
		t.Fatalf("paper has 13 fault types, we have %d", len(AllTypes))
	}
	seen := map[string]bool{}
	for _, ft := range AllTypes {
		s := ft.String()
		if s == "" || seen[s] {
			t.Fatalf("bad/duplicate name for %d: %q", int(ft), s)
		}
		seen[s] = true
	}
}

func TestTextMutatingFaultsChangeText(t *testing.T) {
	for _, ft := range []Type{TextFlip, DestReg, SrcReg, DeleteBranch, DeleteRandom, Init, Pointer, OffByOne} {
		m := newMachine(t)
		before := textWords(m)
		if err := Inject(m, ft, sim.NewRand(7)); err != nil {
			t.Fatalf("%v: %v", ft, err)
		}
		if diffCount(before, textWords(m)) == 0 {
			t.Errorf("%v mutated nothing", ft)
		}
	}
}

func TestStructuralDensityCap(t *testing.T) {
	// Structural faults must be capped well below the raw count of 20 on
	// a kernel this size.
	m := newMachine(t)
	before := textWords(m)
	if err := Inject(m, DeleteRandom, sim.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	n := diffCount(before, textWords(m))
	if n == 0 || n > 1+m.Text.Len()/64 {
		t.Fatalf("structural mutations = %d, cap = %d", n, 1+m.Text.Len()/64)
	}
}

func TestDeleteBranchOnlyNopsBranches(t *testing.T) {
	m := newMachine(t)
	before := textWords(m)
	Inject(m, DeleteBranch, sim.NewRand(11))
	for i := range before {
		if before[i] != m.Text.Word(i) {
			was := kvm.Decode(before[i])
			now := kvm.Decode(m.Text.Word(i))
			if !(was.Op.IsBranch() || was.Op == kvm.OpJmp) || now.Op != kvm.OpNop {
				t.Fatalf("pc %d: %v -> %v", i, was, now)
			}
		}
	}
}

func TestOffByOneSwapsRelationalOps(t *testing.T) {
	m := newMachine(t)
	before := textWords(m)
	Inject(m, OffByOne, sim.NewRand(13))
	changed := 0
	for i := range before {
		if before[i] != m.Text.Word(i) {
			was := kvm.Decode(before[i])
			now := kvm.Decode(m.Text.Word(i))
			if relationalSwap(was.Op) != now.Op {
				t.Fatalf("pc %d: %v -> %v not a relational swap", i, was, now)
			}
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no swaps")
	}
}

func TestInitNopsPrologues(t *testing.T) {
	m := newMachine(t)
	Inject(m, Init, sim.NewRand(17))
	// At least one procedure's full prologue is NOPed.
	found := false
	for _, p := range m.Text.Procs() {
		all := true
		for pc := p.Entry; pc < p.Entry+p.Prolog; pc++ {
			if m.Text.At(pc).Op != kvm.OpNop {
				all = false
				break
			}
		}
		if all {
			found = true
		}
	}
	if !found {
		t.Fatal("no prologue deleted")
	}
}

func TestPointerDeletesDefBeforeUse(t *testing.T) {
	m := newMachine(t)
	before := textWords(m)
	Inject(m, Pointer, sim.NewRand(19))
	// Every change must be a NOPed instruction that previously wrote a
	// register used as a base by a later memory access in the same proc.
	for i := range before {
		if before[i] == m.Text.Word(i) {
			continue
		}
		was := kvm.Decode(before[i])
		if m.Text.At(i).Op != kvm.OpNop {
			t.Fatalf("pc %d mutated to non-nop", i)
		}
		if !hasDest(was) {
			t.Fatalf("pc %d: deleted %v does not define a register", i, was)
		}
	}
}

func TestHeapFlipChangesHeapMemory(t *testing.T) {
	m := newMachine(t)
	// Snapshot the heap frames.
	before := m.Mem.Dump()
	Inject(m, HeapFlip, sim.NewRand(23))
	after := m.Mem.Dump()
	diff := 0
	for i := range before {
		if before[i] != after[i] {
			diff++
		}
	}
	if diff == 0 || diff > Count {
		t.Fatalf("heap flip changed %d bytes", diff)
	}
}

func TestBehaviouralFaultsArmHooks(t *testing.T) {
	m := newMachine(t)
	Inject(m, Alloc, sim.NewRand(29))
	if m.Kernel.Heap.PrematureFree == nil {
		t.Fatal("allocation fault not armed")
	}

	m2 := newMachine(t)
	Inject(m2, CopyOverrun, sim.NewRand(31))
	bcopy := m2.Text.MustProc("bcopy")
	if m2.Kernel.VM.EntryHooks[bcopy.Entry] == nil {
		t.Fatal("copy overrun not armed")
	}

	m3 := newMachine(t)
	Inject(m3, Sync, sim.NewRand(37))
	if m3.Kernel.Locks.ElideAcquire == nil || m3.Kernel.Locks.ElideRelease == nil {
		t.Fatal("sync fault not armed")
	}

	m4 := newMachine(t)
	Inject(m4, StackFlip, sim.NewRand(41))
	if len(m4.Kernel.VM.EntryHooks) == 0 {
		t.Fatal("stack flip not armed")
	}
}

func TestCopyOverrunDistribution(t *testing.T) {
	// Drive the armed hook and check the overrun length distribution
	// matches the paper's 50/44/6 split.
	m := newMachine(t)
	rng := sim.NewRand(43)
	armCopyOverrun(m, rng)
	bcopy := m.Text.MustProc("bcopy")
	hook := m.Kernel.VM.EntryHooks[bcopy.Entry]

	one, mid, big, fired := 0, 0, 0, 0
	const trials = 3_000_000
	for i := 0; i < trials; i++ {
		m.Kernel.VM.Reg[3] = 0
		hook(m.Kernel.VM)
		over := int(m.Kernel.VM.Reg[3])
		if over == 0 {
			continue
		}
		fired++
		switch {
		case over == 1:
			one++
		case over <= 1024:
			mid++
		default:
			big++
		}
	}
	if fired == 0 {
		t.Fatal("hook never fired")
	}
	fOne := float64(one) / float64(fired)
	fMid := float64(mid) / float64(fired)
	fBig := float64(big) / float64(fired)
	if fOne < 0.4 || fOne > 0.6 || fMid < 0.34 || fMid > 0.54 || fBig < 0.02 || fBig > 0.12 {
		t.Fatalf("overrun distribution %0.2f/%0.2f/%0.2f, want ~0.50/0.44/0.06", fOne, fMid, fBig)
	}
	// Cadence: first firing after 150-600 calls, repeats every 600-2400.
	rate := float64(trials) / float64(fired)
	if rate < 400 || rate > 2600 {
		t.Fatalf("overrun cadence ~every %.0f calls", rate)
	}
}

func TestInjectionDeterminism(t *testing.T) {
	for _, ft := range []Type{TextFlip, DestReg, Pointer, OffByOne} {
		m1 := newMachine(t)
		m2 := newMachine(t)
		Inject(m1, ft, sim.NewRand(99))
		Inject(m2, ft, sim.NewRand(99))
		if diffCount(textWords(m1), textWords(m2)) != 0 {
			t.Fatalf("%v injection not deterministic", ft)
		}
	}
}

func TestUnknownTypeErrors(t *testing.T) {
	m := newMachine(t)
	if err := Inject(m, Type(99), sim.NewRand(1)); err == nil {
		t.Fatal("unknown fault type accepted")
	}
}
