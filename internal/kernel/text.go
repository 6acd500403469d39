package kernel

import "rio/internal/kvm"

// Intrinsic numbers (OpIntr imm values).
const (
	IntrMalloc = 1 // r1=size          -> r0=vaddr (0 if full)
	IntrFree   = 2 // r1=vaddr
	IntrLock   = 3 // r1=lock id
	IntrUnlock = 4 // r1=lock id
)

// BufHdr is the layout of a buffer header in the kernel heap, as seen by
// the write_block kasm procedure. Offsets are part of the kernel ABI.
const (
	BufHdrMagic   = 0xB0FF // magic value (fits MovI's 32-bit immediate)
	bufHdrOffMag  = 0
	bufHdrOffData = 8  // address of buffer data (KSEG for UBC, virt for meta)
	bufHdrOffSize = 16 // bytes to copy
	bufHdrOffSrc  = 24 // staging source address
	bufHdrOffDst  = 32 // byte offset within the buffer
	bufHdrOffLock = 40 // per-buffer lock id
	BufHdrSize    = 48
)

// BuildText assembles the kernel's standard procedures. The returned Text
// is the pristine kernel image; crash tests clone it before injecting
// faults.
//
// Register conventions: r1-r4 arguments, r0 result, r5-r9 temporaries,
// r15 stack pointer. Procedures preserve no registers except through the
// explicit push/pop pairs they contain — stale register contents between
// calls are deliberate (see kvm.VM.Exec).
func BuildText() *kvm.Text {
	a := kvm.NewAsm()

	// bcopy(dst=r1, src=r2, len=r3): forward byte/word copy.
	// The inner loops are where copy-overrun and register-corruption
	// faults do their damage.
	a.Proc("bcopy")
	a.MovI(4, 0) // i = 0
	a.MovI(5, 0) // zero
	a.EndProlog()
	// If (dst|src) is 8-aligned, use the word loop.
	a.Or(6, 1, 2)
	a.MovI(7, 7)
	a.And(6, 6, 7)
	a.BneL(6, 5, "bcopy_tail")
	a.MovI(6, 8)
	a.CopyLoop(8) // while len-i >= 8: copy the word at i; i += 8
	a.Label("bcopy_tail")
	a.CopyLoop(1) // while len-i > 0: copy the byte at i; i += 1
	a.Ret()

	// bzero(dst=r1, len=r2).
	a.Proc("bzero")
	a.MovI(3, 0) // i
	a.MovI(4, 0) // zero
	a.EndProlog()
	a.Label("bzero_loop")
	a.Sub(5, 2, 3)
	a.BleL(5, 4, "bzero_done")
	a.Add(6, 1, 3)
	a.StB(6, 0, 4)
	a.AddI(3, 3, 1)
	a.JmpL("bzero_loop")
	a.Label("bzero_done")
	a.Ret()

	// cksum(addr=r1, len=r2) -> r0: rolling h = h*31 + b checksum.
	a.Proc("cksum")
	a.MovI(0, 0)
	a.MovI(3, 0) // i
	a.MovI(4, 0) // zero
	a.EndProlog()
	a.Label("cksum_loop")
	a.Sub(5, 2, 3)
	a.BleL(5, 4, "cksum_done")
	a.Add(6, 1, 3)
	a.LdB(7, 6, 0)
	a.ShlI(8, 0, 5)
	a.Sub(8, 8, 0) // h*31
	a.Add(0, 8, 7)
	a.AddI(3, 3, 1)
	a.JmpL("cksum_loop")
	a.Label("cksum_done")
	a.Ret()

	// fill(dst=r1, len=r2, seed=r3): xorshift pattern fill; used by the
	// workload generator to produce file contents inside the kernel.
	a.Proc("fill")
	a.MovI(4, 0) // i
	a.MovI(5, 0) // zero
	a.EndProlog()
	a.Label("fill_loop")
	a.Sub(6, 2, 4)
	a.BleL(6, 5, "fill_done")
	a.Add(7, 1, 4)
	a.StB(7, 0, 3)
	// seed: x ^= x<<13; x ^= x>>7; x ^= x<<17
	a.ShlI(8, 3, 13)
	a.Xor(3, 3, 8)
	a.ShrI(8, 3, 7)
	a.Xor(3, 3, 8)
	a.ShlI(8, 3, 17)
	a.Xor(3, 3, 8)
	a.AddI(4, 4, 1)
	a.JmpL("fill_loop")
	a.Label("fill_done")
	a.Ret()

	// memcmp(a=r1, b=r2, len=r3) -> r0: 0 if equal, 1 otherwise.
	a.Proc("memcmp")
	a.MovI(0, 0)
	a.MovI(4, 0) // i
	a.MovI(5, 0) // zero
	a.EndProlog()
	a.Label("memcmp_loop")
	a.Sub(6, 3, 4)
	a.BleL(6, 5, "memcmp_done")
	a.Add(7, 1, 4)
	a.LdB(8, 7, 0)
	a.Add(7, 2, 4)
	a.LdB(9, 7, 0)
	a.BneL(8, 9, "memcmp_diff")
	a.AddI(4, 4, 1)
	a.JmpL("memcmp_loop")
	a.Label("memcmp_diff")
	a.MovI(0, 1)
	a.Label("memcmp_done")
	a.Ret()

	// write_block(hdr=r1): the file cache's sanctioned block-write path.
	// Validates the buffer header magic (consistency check), takes the
	// buffer lock, copies staged data into the buffer, releases the lock.
	a.Proc("write_block")
	a.Ld(4, 1, bufHdrOffMag)
	a.MovI(5, BufHdrMagic)
	a.EndProlog()
	a.Assert(4, 5) // corrupted header -> kernel consistency panic
	a.Ld(6, 1, bufHdrOffLock)
	a.Push(1)
	a.Mov(1, 6)
	a.Intr(IntrLock)
	a.Pop(1)
	a.Ld(6, 1, bufHdrOffData)
	a.Ld(7, 1, bufHdrOffDst)
	a.Add(6, 6, 7) // dst = data + offset
	a.Ld(2, 1, bufHdrOffSrc)
	a.Ld(3, 1, bufHdrOffSize)
	a.Push(1)
	a.Mov(1, 6)
	a.Call("bcopy")
	a.Pop(1)
	a.Ld(6, 1, bufHdrOffLock)
	a.Push(1)
	a.Mov(1, 6)
	a.Intr(IntrUnlock)
	a.Pop(1)
	a.Ret()

	// read_block(hdr=r1): the mirror path — copies buffer data out to the
	// staging area (copyout). Same header checks and locking.
	a.Proc("read_block")
	a.Ld(4, 1, bufHdrOffMag)
	a.MovI(5, BufHdrMagic)
	a.EndProlog()
	a.Assert(4, 5)
	a.Ld(6, 1, bufHdrOffLock)
	a.Push(1)
	a.Mov(1, 6)
	a.Intr(IntrLock)
	a.Pop(1)
	a.Ld(2, 1, bufHdrOffData)
	a.Ld(7, 1, bufHdrOffDst)
	a.Add(2, 2, 7) // src = data + offset
	a.Ld(3, 1, bufHdrOffSize)
	a.Ld(6, 1, bufHdrOffSrc) // staging destination
	a.Push(1)
	a.Mov(1, 6)
	a.Call("bcopy")
	a.Pop(1)
	a.Ld(6, 1, bufHdrOffLock)
	a.Push(1)
	a.Mov(1, 6)
	a.Intr(IntrUnlock)
	a.Pop(1)
	a.Ret()

	appendBallast(a)

	return a.MustAssemble()
}
