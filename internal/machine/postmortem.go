package machine

import (
	"fmt"
	"strings"

	"rio/internal/kernel"
	"rio/internal/kvm"
	"rio/internal/mem"
	"rio/internal/mmu"
)

// The paper's authors deferred fault-propagation tracing as "extremely
// challenging" on real hardware (§3.3, footnote 2). In the simulator it is
// a ring buffer: attach a tracer (EnableTrace), crash, and Postmortem
// explains where the dying kernel was executing and what its last stores
// hit — including whether any landed in the file cache.

// EnableTrace attaches an execution tracer remembering the last n
// instructions. Call before running workload; only meaningful on
// interpreted (non-FastPath) machines.
func (m *Machine) EnableTrace(n int) *kvm.Tracer {
	t := kvm.NewTracer(n)
	m.Kernel.VM.Trace = t
	return t
}

// StoreClass classifies where a store landed.
type StoreClass string

// Store target classes.
const (
	StoreStack    StoreClass = "kernel stack"
	StoreHeap     StoreClass = "kernel heap"
	StoreStaging  StoreClass = "staging"
	StoreMeta     StoreClass = "buffer cache (metadata)"
	StoreUBC      StoreClass = "UBC (file data)"
	StoreRegistry StoreClass = "registry"
	StoreFree     StoreClass = "free frame"
	StoreUnmapped StoreClass = "unmapped/illegal"
)

// ClassifyStore maps a store's virtual/KSEG address to what it would hit.
func (m *Machine) ClassifyStore(addr uint64) StoreClass {
	var frame int
	switch {
	case mmu.IsKSEG(addr):
		phys := mmu.KSEGToPhys(addr)
		if !m.Mem.Contains(phys) {
			return StoreUnmapped
		}
		frame = mem.FrameOf(phys)
	case addr >= kernel.StackLimit && addr < kernel.StackTop:
		return StoreStack
	case addr >= kernel.HeapBase && addr < kernel.HeapBase+kernel.HeapSize:
		return StoreHeap
	case addr >= kernel.StagingBase && addr < kernel.StagingBase+kernel.StagingSize:
		return StoreStaging
	default:
		// Virtual: resolve through the page table (dyn mappings).
		pte, ok := m.MMU.Lookup(addr / mem.PageSize)
		if !ok {
			return StoreUnmapped
		}
		frame = pte.Frame
	}
	f := m.Mem.Frame(frame)
	switch {
	case f.Registry:
		return StoreRegistry
	case f.FileCache:
		// Meta pages have virtual (dyn) mappings; UBC pages are reached
		// by KSEG. Distinguish by class list.
		for _, mf := range m.Kernel.FramesOf(kernel.FrameMeta) {
			if mf == frame {
				return StoreMeta
			}
		}
		return StoreUBC
	default:
		return StoreFree
	}
}

// Postmortem summarises a crash: what killed the kernel, the tail of
// execution, and where the final stores landed.
type Postmortem struct {
	CrashKind   string
	CrashReason string
	PC          int
	Proc        string
	Registers   [kvm.NumRegs]uint64
	// Tail is the disassembled tail of execution.
	Tail string
	// StoreHisto counts recent stores by target class.
	StoreHisto map[StoreClass]int
	// FileCacheStores lists recent stores that hit file-cache or registry
	// frames — the stores Rio's protection exists to stop — one line per
	// run of consecutive such stores by one procedure into one page of one
	// class, so a stray store stands apart from a copy loop's.
	FileCacheStores []string
}

// storeRun is consecutive traced stores by one procedure into one page of
// one target class.
type storeRun struct {
	proc        string
	class       StoreClass
	first, last kvm.TraceEntry
	n           int
}

// Format renders the report.
func (p *Postmortem) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash: %s — %s\n", p.CrashKind, p.CrashReason)
	fmt.Fprintf(&b, "pc=%d in %s\n", p.PC, p.Proc)
	fmt.Fprintf(&b, "registers:")
	for i, v := range p.Registers {
		if i%4 == 0 {
			fmt.Fprintf(&b, "\n ")
		}
		fmt.Fprintf(&b, " r%-2d=%#-18x", i, v)
	}
	b.WriteString("\n\nrecent stores by target:\n")
	for _, class := range []StoreClass{StoreStack, StoreHeap, StoreStaging,
		StoreMeta, StoreUBC, StoreRegistry, StoreFree, StoreUnmapped} {
		if n := p.StoreHisto[class]; n > 0 {
			fmt.Fprintf(&b, "  %-26s %d\n", class, n)
		}
	}
	if len(p.FileCacheStores) > 0 {
		b.WriteString("\nstores into file cache / registry:\n")
		for _, s := range p.FileCacheStores {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	b.WriteString("\nexecution tail:\n")
	b.WriteString(p.Tail)
	return b.String()
}

// BuildPostmortem assembles the crash report. The machine must have
// crashed and must have a tracer attached (EnableTrace).
func (m *Machine) BuildPostmortem(tailLen int) (*Postmortem, error) {
	c := m.Kernel.Crashed()
	if c == nil {
		return nil, fmt.Errorf("machine: postmortem of a live machine")
	}
	tr := m.Kernel.VM.Trace
	if tr == nil {
		return nil, fmt.Errorf("machine: no tracer attached (EnableTrace)")
	}
	p := &Postmortem{
		CrashKind:   c.Kind.String(),
		CrashReason: c.Reason,
		PC:          c.PC,
		Proc:        "?",
		Registers:   m.Kernel.VM.Reg,
		Tail:        tr.Format(m.Text, tailLen),
		StoreHisto:  make(map[StoreClass]int),
	}
	if proc, ok := m.Text.ProcAt(c.PC); ok {
		p.Proc = proc.Name
	}
	var runs []storeRun
	for _, e := range tr.Stores() {
		class := m.ClassifyStore(e.Addr)
		p.StoreHisto[class]++
		if class != StoreMeta && class != StoreUBC && class != StoreRegistry {
			continue
		}
		proc := "?"
		if pr, ok := m.Text.ProcAt(e.PC); ok {
			proc = pr.Name
		}
		if r := len(runs) - 1; r >= 0 && runs[r].proc == proc && runs[r].class == class &&
			runs[r].last.Addr/mem.PageSize == e.Addr/mem.PageSize {
			runs[r].last, runs[r].n = e, runs[r].n+1
			continue
		}
		runs = append(runs, storeRun{proc, class, e, e, 1})
	}
	for _, r := range runs {
		line := fmt.Sprintf("step %d, %s pc=%d: [%#x] = %#x (%s)",
			r.first.Seq, r.proc, r.first.PC, r.first.Addr, r.first.Val, r.class)
		if r.n > 1 {
			line = fmt.Sprintf("steps %d-%d, %s: %d stores, [%#x] to [%#x] (%s)",
				r.first.Seq, r.last.Seq, r.proc, r.n, r.first.Addr, r.last.Addr, r.class)
		}
		p.FileCacheStores = append(p.FileCacheStores, line)
	}
	return p, nil
}
