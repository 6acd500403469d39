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

// Frame states, the bits of Memory.state. Frame's metadata is the
// simulated kernel's; a state records what has happened to the frame's
// bytes since New or Recycle.
const (
	// stored: the frame's bytes may be nonzero. A store, or the writing
	// out of Scramble's stream, sets it; only Recycle clears it.
	stored uint8 = 1 << iota
	// scrambled: the frame's content is Scramble's stream, which has not
	// been written out into data yet. The first access writes it out.
	scrambled
)

// gamma is the Weyl increment of Scramble's stream.
const gamma = 0x9e3779b97f4a7c15

// Memory is the simulated physical memory.
type Memory struct {
	data   []byte
	frames []Frame
	state  []uint8 // per frame: stored, scrambled
	// lazy means a frame may be scrambled: set by Scramble, cleared by
	// Recycle. While it is false the read accessors test no frame state.
	lazy bool
	// weyl is Scramble's counter before byte 0; byte i of the stream mixes
	// weyl + (i+1)·gamma.
	weyl uint64
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
		state:  make([]uint8, size/PageSize),
	}
}

// Recycle returns a new memory of m's size on m's storage, zeroed, with
// fresh frame metadata: indistinguishable from New's. m must not be used
// again. A crash campaign builds each run's memory from the last one's
// instead of paging in 16 MB of fresh memory per run; only the frames a
// run stored to are cleared, and no slice is allocated.
func (m *Memory) Recycle() *Memory {
	for f, s := range m.state {
		if s&stored != 0 {
			clear(m.data[FrameBase(f):][:PageSize])
		}
	}
	clear(m.frames)
	clear(m.state)
	return &Memory{data: m.data, frames: m.frames, state: m.state}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// NumFrames returns the number of page frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// Stored reports whether frame n may hold nonzero bytes: whether anything
// stored to it, or wrote Scramble's stream out into it, since New or
// Recycle. Recycle clears exactly these frames.
func (m *Memory) Stored(n int) bool { return m.state[n]&stored != 0 }

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
	m.ready(addr, len(buf), false)
	copy(buf, m.data[addr:])
}

// WriteAt copies buf into memory at physical address addr. Raw, unchecked:
// trusted simulator paths only.
func (m *Memory) WriteAt(addr uint64, buf []byte) {
	if !m.ContainsRange(addr, len(buf)) {
		panic(fmt.Sprintf("mem: raw write [%#x,+%d) out of range", addr, len(buf)))
	}
	m.ready(addr, len(buf), true)
	copy(m.data[addr:], buf)
}

// Byte returns the byte at physical address addr (raw access).
func (m *Memory) Byte(addr uint64) byte {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("mem: raw byte read %#x out of range", addr))
	}
	if m.lazy && m.state[addr>>PageShift]&scrambled != 0 {
		m.unscramble(int(addr >> PageShift))
	}
	return m.data[addr]
}

// SetByte stores a byte at physical address addr (raw access).
func (m *Memory) SetByte(addr uint64, b byte) {
	if !m.Contains(addr) {
		panic(fmt.Sprintf("mem: raw byte write %#x out of range", addr))
	}
	if m.state[addr>>PageShift] != stored {
		m.ready(addr, 1, true)
	}
	m.data[addr] = b
}

// Word64 reads a little-endian 64-bit word at addr (raw access): one range
// check, one load.
func (m *Memory) Word64(addr uint64) uint64 {
	if !m.ContainsRange(addr, 8) {
		panic(fmt.Sprintf("mem: raw word read %#x out of range", addr))
	}
	if m.lazy && (m.state[addr>>PageShift]|m.state[(addr+7)>>PageShift])&scrambled != 0 {
		m.ready(addr, 8, false)
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
	if f := addr >> PageShift; f != (addr+7)>>PageShift || m.state[f] != stored {
		m.ready(addr, 8, true)
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

// Slice returns a direct, writable view of [addr, addr+n), and marks its
// frames stored. Trusted simulator paths that fill memory in bulk (the
// cache's initial fill, the registry's clear, the MMU's copy runs) use it
// to store without a second copy; a path that only reads takes View.
// Callers must not retain it across a Scramble.
func (m *Memory) Slice(addr uint64, n int) []byte {
	if !m.ContainsRange(addr, n) {
		panic(fmt.Sprintf("mem: slice [%#x,+%d) out of range", addr, n))
	}
	m.ready(addr, n, true)
	return m.data[addr : addr+uint64(n)]
}

// View returns a direct, read-only view of [addr, addr+n): Slice for a
// caller that only loads, which leaves the frames' stored marks as they
// are. Callers must not write through it or retain it across a Scramble.
func (m *Memory) View(addr uint64, n int) []byte {
	if !m.ContainsRange(addr, n) {
		panic(fmt.Sprintf("mem: view [%#x,+%d) out of range", addr, n))
	}
	m.ready(addr, n, false)
	return m.data[addr : addr+uint64(n)]
}

// Dump returns a copy of all physical memory, as the warm-reboot step dumps
// RAM to the swap partition before the VM system initialises.
func (m *Memory) Dump() []byte {
	out := make([]byte, len(m.data))
	m.ready(0, len(m.data), false)
	copy(out, m.data)
	return out
}

// Scramble overwrites all of memory with pseudo-random bytes derived from
// seed and clears all frame metadata. This simulates a cold boot (or the
// MicroVAX-style firmware that overwrites memory during reboot, which the
// Harp designers found made warm reboot impossible).
//
// The bytes are written out lazily, a frame at a time on its first access
// (unscramble), so a run pays only for the frames it touches. Byte i of
// memory is the same as if every byte had been written here.
func (m *Memory) Scramble(seed uint64) {
	m.weyl, m.lazy = seed, true
	for f := range m.state {
		m.state[f] |= scrambled
	}
	clear(m.frames)
}

// unscramble writes Scramble's stream out into frame f, which then holds
// bytes that may be nonzero.
func (m *Memory) unscramble(f int) {
	// splitmix64-ish scramble, cheap and deterministic: the Weyl counter
	// seeks to the frame's first byte, then steps once per byte.
	x := m.weyl + uint64(f)*PageSize*gamma
	page := m.data[FrameBase(f):][:PageSize]
	for i := range page {
		x += gamma
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		page[i] = byte(z ^ (z >> 31))
	}
	m.state[f] = stored
}

// ready readies the frames of [addr, addr+n) for an access: each scrambled
// one gets its stream written out, and a store marks every one stored.
// The byte and word accessors test their frames inline and call it only
// when one needs either.
func (m *Memory) ready(addr uint64, n int, store bool) {
	if n == 0 || !store && !m.lazy {
		return
	}
	for f := int(addr >> PageShift); f <= int((addr+uint64(n)-1)>>PageShift); f++ {
		if m.state[f]&scrambled != 0 {
			m.unscramble(f)
		} else if store {
			m.state[f] = stored
		}
	}
}

// ClearFlags resets all frame metadata but preserves contents. Used when a
// warm reboot re-initialises the kernel's view of memory while the data
// survives.
func (m *Memory) ClearFlags() {
	clear(m.frames)
}
