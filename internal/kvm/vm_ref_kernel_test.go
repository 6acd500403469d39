package kvm_test

import (
	"maps"
	"testing"

	"rio/internal/fault"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/kvm"
	"rio/internal/machine"
	"rio/internal/sim"
)

// faultedKernel boots a crash-campaign machine (interpreted kernel, Rio
// with protection), gives it a three-block file, and injects ft exactly as
// a crash run does. Two calls with the same arguments build identical
// machines, fault hooks and their private random streams included.
func faultedKernel(t *testing.T, ft fault.Type, seed uint64) (*machine.Machine, []uint64) {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.Seed = seed
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.FS.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(kernel.FillBytes(3*fs.BlockSize, seed|1), 0); err != nil {
		t.Fatal(err)
	}
	buf := m.Cache.LookupData(f.Ino, 1)
	if buf == nil {
		t.Fatal("file block not cached")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fault.Inject(m, ft, fault.DefaultCount, sim.NewRand(sim.Mix(seed, uint64(ft)))); err != nil {
		t.Fatal(err)
	}
	if seed%2 == 0 {
		// Machines of even seed run with the file's frame open, so
		// sanctioned and wild stores land; the others trap on it.
		m.MMU.SetFrameProtection(buf.Frame, false)
	}
	scratch := m.Kernel.Heap.AllocatedBlocks()[0][0] // the ballast procedures' block
	// Addresses a kernel procedure is plausibly handed, and some that cross
	// a page: into the next frame (another file's, perhaps protected), and
	// off the end of the heap and of the staging area onto unmapped pages.
	// The heap and the staging area share TLB slots.
	return m, []uint64{buf.Hdr, buf.Addr, scratch, m.Kernel.StagingAddr(0), kernel.HeapBase + 4096,
		buf.Addr + fs.BlockSize - 64, kernel.HeapBase + kernel.HeapSize - 64,
		kernel.StagingBase + kernel.StagingSize - 256}
}

// TestBcopyRunsTheCopyLoop fails when the kernel's bcopy stops containing
// the two copy loops the interpreter runs natively — the word loop, and
// the byte loop at its exit, which both the tail and unaligned copies take
// — which would switch that off without changing any result, only the
// host time.
func TestBcopyRunsTheCopyLoop(t *testing.T) {
	text := kernel.BuildText()
	bcopy := text.MustProc("bcopy")
	at := kvm.CopyLoops(text)
	word := -1
	for pc, width := range at {
		if width == 8 {
			word = pc
		}
	}
	if want := map[int]int{word: 8, word + 8: 1}; word < bcopy.Entry || word+16 >= bcopy.End || !maps.Equal(at, want) {
		t.Fatalf("copy loops (address: width) %v, want the word loop and the byte loop after it in bcopy [%d, %d):\n%s",
			at, bcopy.Entry, bcopy.End, text.Disassemble(bcopy.Entry, bcopy.End))
	}
}

// TestRunMatchesReferenceOnFaultedKernel holds the fast interpreter loop to
// the reference on the text crash campaigns run: the real kernel, under
// each fault type's mutation and hooks, driven procedure by procedure on
// twin machines with the campaign's register noise and budget. After every
// Exec the twins must agree on everything (kvm.Twin).
func TestRunMatchesReferenceOnFaultedKernel(t *testing.T) {
	procs := []string{"bcopy", "bzero", "cksum", "fill", "memcmp", "write_block", "read_block"}
	procs = append(procs, kernel.BallastProcs...)
	for _, ft := range fault.AllTypes {
		for seed := uint64(1); seed <= 3; seed++ {
			fast, addrs := faultedKernel(t, ft, seed)
			ref, _ := faultedKernel(t, ft, seed)
			tw := kvm.Twin{Fast: fast.Kernel.VM, Ref: ref.Kernel.VM}
			for _, v := range []*kvm.VM{tw.Fast, tw.Ref} {
				noise := sim.NewRand(sim.Mix(seed, 0x4E01))
				v.RegNoise = func() (uint64, bool) { return noise.Uint64(), noise.Float64() < 0.85 }
				v.Budget = 400_000
				if seed == 3 { // off the native copy loop
					v.Trace = kvm.NewTracer(32)
				}
			}
			script := sim.NewRand(sim.Mix(seed, uint64(ft), 0x5C21))
			for i := 0; i < 40; i++ {
				proc := procs[script.Intn(len(procs))]
				args := []uint64{
					addrs[script.Intn(len(addrs))],
					addrs[script.Intn(len(addrs))],
					uint64(script.Intn(2*fs.BlockSize + 1)),
				}
				if err := tw.Exec(proc, args...); err != nil {
					t.Fatalf("%v seed %d exec %d: %s(%#x): %v", ft, seed, i, proc, args, err)
				}
			}
			if tw.Fast.Steps == 0 {
				t.Fatalf("%v seed %d: nothing was interpreted", ft, seed)
			}
		}
	}
}
