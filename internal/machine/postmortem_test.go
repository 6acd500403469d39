package machine_test

import (
	"strings"
	"testing"

	"rio/internal/fault"
	"rio/internal/fs"
	"rio/internal/machine"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/sim"
	"rio/internal/workload"
)

func tracedMachine(t *testing.T, seed uint64) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.FastPath = false
	opt.Seed = seed
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel.VM.Budget = 300_000
	m.EnableTrace(512)
	return m
}

func TestPostmortemOfLiveMachineFails(t *testing.T) {
	m := tracedMachine(t, 1)
	if _, err := m.BuildPostmortem(10); err == nil {
		t.Fatal("postmortem of live machine allowed")
	}
}

func TestPostmortemWithoutTracerFails(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.FastPath = false
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Kernel.Panic("x")
	if _, err := m.BuildPostmortem(10); err == nil {
		t.Fatal("postmortem without tracer allowed")
	}
}

func TestPostmortemAfterInjectedCrash(t *testing.T) {
	// Find a seed that crashes quickly under a pointer fault and check
	// the report contents.
	for seed := uint64(1); seed < 20; seed++ {
		m := tracedMachine(t, seed)
		mt := workload.NewMemTest(seed, 1<<20)
		for i := 0; i < 10; i++ {
			if err := mt.Step(m.FS); err != nil {
				t.Fatal(err)
			}
		}
		if err := fault.Inject(m, fault.Pointer, sim.NewRand(seed)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150 && m.Crashed() == nil; i++ {
			_ = mt.Step(m.FS)
		}
		if m.Crashed() == nil {
			continue
		}
		pm, err := m.BuildPostmortem(20)
		if err != nil {
			t.Fatal(err)
		}
		if pm.CrashKind == "" || pm.Proc == "" {
			t.Fatalf("incomplete postmortem: %+v", pm)
		}
		out := pm.Format()
		for _, want := range []string{"crash:", "registers:", "execution tail:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("report missing %q:\n%s", want, out)
			}
		}
		if len(pm.Tail) == 0 {
			t.Fatal("empty execution tail")
		}
		return
	}
	t.Skip("no seed crashed within budget")
}

// TestPostmortemCollapsesCopyRuns: a copy loop's stores into one page of
// the registry are one line of the post-mortem, and a store by another
// procedure stands on its own line after it.
func TestPostmortemCollapsesCopyRuns(t *testing.T) {
	opt := machine.DefaultOptions(fs.Configs[fs.RioNoProt].Policy)
	opt.FastPath = false
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTrace(4096)
	dst := mmu.PhysToKSEG(mem.FrameBase(m.Reg.Frames()[0]))
	if err := m.Kernel.BCopy(dst, m.Kernel.StageIn(make([]byte, 256)), 256); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.Exec("bzero", dst+1024, 1); err != nil {
		t.Fatal(err)
	}
	m.Kernel.Panic("injected test crash")
	pm, err := m.BuildPostmortem(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.FileCacheStores; len(got) != 2 || !strings.Contains(got[0], "bcopy: 32 stores") || !strings.Contains(got[1], "bzero pc=") {
		t.Fatalf("file-cache stores, want a bcopy run and one bzero store:\n%s", strings.Join(got, "\n"))
	}
}

func TestClassifyStore(t *testing.T) {
	m := tracedMachine(t, 3)
	// Heap.
	if c := m.ClassifyStore(0x20000000 + 64); c != machine.StoreHeap {
		// HeapBase = (1<<16)*8192 = 0x20000000
		t.Fatalf("heap store classified %v", c)
	}
	// Stack.
	if c := m.ClassifyStore(uint64(1<<8)*mem.PageSize + 64); c != machine.StoreStack {
		t.Fatalf("stack store classified %v", c)
	}
	// Unmapped virtual.
	if c := m.ClassifyStore(0x123456789000); c != machine.StoreUnmapped {
		t.Fatalf("wild store classified %v", c)
	}
	// KSEG beyond memory.
	if c := m.ClassifyStore(mmu.PhysToKSEG(uint64(m.Mem.Size()) + 8192)); c != machine.StoreUnmapped {
		t.Fatalf("kseg-out store classified %v", c)
	}
	// A real UBC frame via KSEG.
	f, err := m.FS.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("x"))
	f.Close()
	b := m.Cache.LookupData(f.Ino, 0)
	if b == nil {
		t.Fatal("no data buffer")
	}
	if c := m.ClassifyStore(mmu.PhysToKSEG(mem.FrameBase(b.Frame))); c != machine.StoreUBC {
		t.Fatalf("ubc store classified %v", c)
	}
	// A metadata frame through its dyn mapping.
	mb := m.Cache.All(0)
	if len(mb) == 0 {
		t.Fatal("no meta buffers")
	}
	if c := m.ClassifyStore(mb[0].Addr); c != machine.StoreMeta {
		t.Fatalf("meta store classified %v", c)
	}
	// Registry frame.
	regFrame := m.Reg.Frames()[0]
	if c := m.ClassifyStore(mmu.PhysToKSEG(mem.FrameBase(regFrame))); c != machine.StoreRegistry {
		t.Fatalf("registry store classified %v", c)
	}
}

func TestTracerRecordsStores(t *testing.T) {
	m := tracedMachine(t, 5)
	f, err := m.FS.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 4096))
	f.Close()
	tr := m.Kernel.VM.Trace
	if tr.Steps() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	stores := tr.Stores()
	if len(stores) == 0 {
		t.Fatal("no stores recorded")
	}
	// Formatting names procedures. The last instructions are Close's
	// background ballast; the copy loops sit a few hundred entries back.
	out := tr.Format(m.Text, 0)
	if !strings.Contains(out, "bcopy") && !strings.Contains(out, "write_block") {
		t.Fatalf("trace lacks copy-path procedures:\n%s", out)
	}
}
