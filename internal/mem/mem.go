// Package mem implements the simulated physical memory of the Rio machine.
//
// Physical memory is a flat byte array divided into 8 KB frames, matching
// the DEC Alpha page size used in the paper. Each frame carries the metadata
// Rio needs: whether it belongs to the file cache, whether it is currently
// write-protected, and whether a sanctioned write is in flight ("changing",
// used by the checksum machinery to skip buffers that were legitimately
// mid-update at crash time).
//
// This package is deliberately dumb storage: it performs no protection
// checks itself. Address translation and protection enforcement live in
// package mmu; trusted simulator paths (the warm-reboot memory dump, test
// oracles) access frames directly through this package, exactly as real
// hardware exposes raw DRAM to the boot firmware.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the simulated page/frame size in bytes (8 KB, as on the
// DEC 3000/600 used in the paper).
const PageSize = 8192

// PageShift is log2(PageSize).
const PageShift = 13

// Frame holds per-frame metadata.
type Frame struct {
	// FileCache marks the frame as holding file-cache data (UBC or buffer
	// cache). Only file-cache frames are ever write-protected by Rio.
	FileCache bool
	// WriteProtected is Rio's protection bit. When protection is enforced
	// (see mmu), stores to a protected frame trap.
	WriteProtected bool
	// Registry marks the frame as part of the Rio registry area, which is
	// protected like file-cache frames.
	Registry bool
}

// Memory is the simulated physical memory.
type Memory struct {
	data   []byte
	frames []Frame
}

// New returns a physical memory of size bytes. Size must be a positive
// multiple of PageSize.
func New(size int) *Memory {
	if size <= 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: size %d not a positive multiple of %d", size, PageSize))
	}
	return &Memory{
		data:   make([]byte, size),
		frames: make([]Frame, size/PageSize),
	}
}

// Recycle returns a new memory of m's size on m's storage, zeroed, with
// fresh frame metadata: indistinguishable from New's. m must not be used
// again. A crash campaign builds each run's memory from the last one's
// instead of paging in 16 MB of fresh memory per run.
func (m *Memory) Recycle() *Memory {
	clear(m.data)
	return &Memory{data: m.data, frames: make([]Frame, len(m.frames))}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// NumFrames returns the number of page frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// Frame returns a pointer to the metadata of frame n. It panics if n is out
// of range (a simulator bug, not a simulated fault).
func (m *Memory) Frame(n int) *Frame { return &m.frames[n] }

// FrameOf returns the frame number containing physical address addr.
func FrameOf(addr uint64) int { return int(addr >> PageShift) }

// FrameBase returns the physical base address of frame n.
func FrameBase(n int) uint64 { return uint64(n) << PageShift }

// Contains reports whether addr is a valid physical address.
func (m *Memory) Contains(addr uint64) bool { return addr < uint64(len(m.data)) }

// ContainsRange reports whether [addr, addr+n) lies entirely in memory.
func (m *Memory) ContainsRange(addr uint64, n int) bool {
	return n >= 0 && addr <= uint64(len(m.data)) && uint64(n) <= uint64(len(m.data))-addr
}

// ReadAt copies memory starting at physical address addr into buf. It
// panics on out-of-range access: raw access is for trusted simulator code
// only, which must stay in bounds.
func (m *Memory) ReadAt(addr uint64, buf []byte) {
	if !m.ContainsRange(addr, len(buf)) {
		panic(fmt.Sprintf("mem: raw read [%#x,+%d) out of range", addr, len(buf)))
	}
	copy(buf, m.data[addr:])
}

// WriteAt copies buf into memory at physical address addr. Raw, unchecked:
// trusted simulator paths only.
func (m *Memory) WriteAt(addr uint64, buf []byte) {
	if !m.ContainsRange(addr, len(buf)) {
		panic(fmt.Sprintf("mem: raw write [%#x,+%d) out of range", addr, len(buf)))
	}
	copy(m.data[addr:], buf)
}

// Byte returns the byte at physical address addr (raw access).
func (m *Memory) Byte(addr uint64) byte {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("mem: raw byte read %#x out of range", addr))
	}
	return m.data[addr]
}

// SetByte stores a byte at physical address addr (raw access).
func (m *Memory) SetByte(addr uint64, b byte) {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("mem: raw byte write %#x out of range", addr))
	}
	m.data[addr] = b
}

// Word64 reads a little-endian 64-bit word at addr (raw access): one range
// check, one load.
func (m *Memory) Word64(addr uint64) uint64 {
	if !m.ContainsRange(addr, 8) {
		panic(fmt.Sprintf("mem: raw word read %#x out of range", addr))
	}
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// SetWord64 writes a little-endian 64-bit word at addr (raw access). A
// word that does not fit stores nothing before panicking (the byte-wise
// definition stored the in-range bytes first); no caller can tell the
// difference, since every MMU path checks Contains and alignment before
// it gets here.
func (m *Memory) SetWord64(addr uint64, v uint64) {
	if !m.ContainsRange(addr, 8) {
		panic(fmt.Sprintf("mem: raw word write %#x out of range", addr))
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// FlipBit inverts a single bit of physical memory. Fault injection uses
// this for memory bit-flip fault models.
func (m *Memory) FlipBit(addr uint64, bit uint) {
	if bit > 7 {
		panic("mem: bit index out of range")
	}
	m.SetByte(addr, m.Byte(addr)^(1<<bit))
}

// Slice returns a direct view of [addr, addr+n). Trusted simulator paths
// (bulk copies in the cache, warm-reboot dump) use this to avoid double
// copying; callers must not retain it across a Scramble.
func (m *Memory) Slice(addr uint64, n int) []byte {
	if !m.ContainsRange(addr, n) {
		panic(fmt.Sprintf("mem: slice [%#x,+%d) out of range", addr, n))
	}
	return m.data[addr : addr+uint64(n)]
}

// Dump returns a copy of all physical memory, as the warm-reboot step dumps
// RAM to the swap partition before the VM system initialises.
func (m *Memory) Dump() []byte {
	out := make([]byte, len(m.data))
	copy(out, m.data)
	return out
}

// Scramble overwrites all of memory with pseudo-random bytes derived from
// seed and clears all frame metadata. This simulates a cold boot (or the
// MicroVAX-style firmware that overwrites memory during reboot, which the
// Harp designers found made warm reboot impossible).
func (m *Memory) Scramble(seed uint64) {
	x := seed
	for i := range m.data {
		// splitmix64-ish scramble, cheap and deterministic.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		m.data[i] = byte(z ^ (z >> 31))
	}
	for i := range m.frames {
		m.frames[i] = Frame{}
	}
}

// ClearFlags resets all frame metadata but preserves contents. Used when a
// warm reboot re-initialises the kernel's view of memory while the data
// survives.
func (m *Memory) ClearFlags() {
	for i := range m.frames {
		m.frames[i] = Frame{}
	}
}
