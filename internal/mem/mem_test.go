package mem

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewSizing(t *testing.T) {
	m := New(16 * PageSize)
	if m.Size() != 16*PageSize {
		t.Fatalf("Size = %d", m.Size())
	}
	if m.NumFrames() != 16 {
		t.Fatalf("NumFrames = %d", m.NumFrames())
	}
}

func TestNewRejectsBadSize(t *testing.T) {
	for _, size := range []int{0, -PageSize, PageSize + 1, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", size)
				}
			}()
			New(size)
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4 * PageSize)
	data := []byte("the rio file cache survives crashes")
	m.WriteAt(PageSize+100, data)
	got := make([]byte, len(data))
	m.ReadAt(PageSize+100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestWord64RoundTrip(t *testing.T) {
	m := New(PageSize)
	m.SetWord64(40, 0xdeadbeefcafebabe)
	if got := m.Word64(40); got != 0xdeadbeefcafebabe {
		t.Fatalf("Word64 = %#x", got)
	}
	// Little-endian layout.
	if m.Byte(40) != 0xbe {
		t.Fatalf("low byte = %#x, want 0xbe", m.Byte(40))
	}
}

func TestWord64Property(t *testing.T) {
	m := New(PageSize)
	f := func(v uint64, off uint16) bool {
		addr := uint64(off) % (PageSize - 8)
		m.SetWord64(addr, v)
		return m.Word64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameOfAndBase(t *testing.T) {
	if FrameOf(0) != 0 || FrameOf(PageSize-1) != 0 || FrameOf(PageSize) != 1 {
		t.Fatal("FrameOf boundary wrong")
	}
	if FrameBase(3) != 3*PageSize {
		t.Fatalf("FrameBase(3) = %d", FrameBase(3))
	}
	for n := 0; n < 100; n++ {
		if FrameOf(FrameBase(n)) != n {
			t.Fatalf("FrameOf(FrameBase(%d)) = %d", n, FrameOf(FrameBase(n)))
		}
	}
}

func TestContainsRange(t *testing.T) {
	m := New(2 * PageSize)
	cases := []struct {
		addr uint64
		n    int
		want bool
	}{
		{0, 0, true},
		{0, 2 * PageSize, true},
		{0, 2*PageSize + 1, false},
		{2 * PageSize, 0, true},
		{2 * PageSize, 1, false},
		{PageSize, PageSize, true},
		{0, -1, false},
		{^uint64(0), 1, false},
	}
	for _, c := range cases {
		if got := m.ContainsRange(c.addr, c.n); got != c.want {
			t.Errorf("ContainsRange(%#x, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
}

func TestRawOutOfRangePanics(t *testing.T) {
	m := New(PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range raw write did not panic")
		}
	}()
	m.WriteAt(PageSize-4, make([]byte, 8))
}

func TestFlipBit(t *testing.T) {
	m := New(PageSize)
	m.SetByte(10, 0b00001000)
	m.FlipBit(10, 3)
	if m.Byte(10) != 0 {
		t.Fatalf("after flip: %#b", m.Byte(10))
	}
	m.FlipBit(10, 7)
	if m.Byte(10) != 0b10000000 {
		t.Fatalf("after second flip: %#b", m.Byte(10))
	}
}

func TestFrameMetadata(t *testing.T) {
	m := New(4 * PageSize)
	f := m.Frame(2)
	f.FileCache = true
	f.WriteProtected = true
	if !m.Frame(2).FileCache || !m.Frame(2).WriteProtected {
		t.Fatal("frame metadata not retained")
	}
	if m.Frame(1).FileCache {
		t.Fatal("metadata leaked to wrong frame")
	}
}

func TestDumpIsCopy(t *testing.T) {
	m := New(PageSize)
	m.SetByte(0, 0xaa)
	d := m.Dump()
	m.SetByte(0, 0xbb)
	if d[0] != 0xaa {
		t.Fatal("Dump aliases live memory")
	}
	if len(d) != PageSize {
		t.Fatalf("dump len = %d", len(d))
	}
}

func TestScramble(t *testing.T) {
	m := New(2 * PageSize)
	m.Frame(0).FileCache = true
	m.WriteAt(0, []byte("precious data"))
	m.Scramble(1)
	if m.Frame(0).FileCache {
		t.Fatal("Scramble did not clear frame flags")
	}
	if bytes.Equal(m.Slice(0, 13), []byte("precious data")) {
		t.Fatal("Scramble did not overwrite data")
	}
	// Deterministic for a given seed.
	m2 := New(2 * PageSize)
	m2.Scramble(1)
	if !bytes.Equal(m.Dump(), m2.Dump()) {
		t.Fatal("Scramble not deterministic")
	}
}

// TestRecycleIsNew: a recycled memory keeps nothing of the memory it was
// made from but the size.
func TestRecycleIsNew(t *testing.T) {
	old := New(4 * PageSize)
	old.Scramble(9)
	old.Frame(2).WriteProtected = true
	m := old.Recycle()
	if m.Size() != old.Size() || m.NumFrames() != old.NumFrames() {
		t.Fatalf("recycled memory is %d bytes in %d frames", m.Size(), m.NumFrames())
	}
	if !bytes.Equal(m.Dump(), New(4*PageSize).Dump()) {
		t.Fatal("recycled memory is not zeroed")
	}
	for f := 0; f < m.NumFrames(); f++ {
		if *m.Frame(f) != (Frame{}) {
			t.Fatalf("frame %d keeps flags %+v", f, *m.Frame(f))
		}
	}
}

func TestClearFlagsPreservesData(t *testing.T) {
	m := New(PageSize)
	m.WriteAt(64, []byte("survives"))
	m.Frame(0).WriteProtected = true
	m.ClearFlags()
	if m.Frame(0).WriteProtected {
		t.Fatal("flags not cleared")
	}
	got := make([]byte, 8)
	m.ReadAt(64, got)
	if string(got) != "survives" {
		t.Fatalf("data lost: %q", got)
	}
}

func TestSliceAliases(t *testing.T) {
	m := New(PageSize)
	s := m.Slice(100, 4)
	s[0] = 0x7f
	if m.Byte(100) != 0x7f {
		t.Fatal("Slice must alias live memory")
	}
}

// TestWord64IsEightBytes holds the word accessors to their byte-wise
// definition where a slice-based implementation could go wrong: across a
// frame boundary, unaligned, and at the last word of memory; and requires
// the package's own panic (not a bare slice fault) for a word that does
// not fit, with nothing stored.
func TestWord64IsEightBytes(t *testing.T) {
	const size = 4 * PageSize
	m := New(size)
	for i := 0; i < size; i++ {
		m.SetByte(uint64(i), byte(i*7+i>>8))
	}
	byteWise := func(addr uint64) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(m.Byte(addr+uint64(i))) << (8 * i)
		}
		return v
	}
	for _, addr := range []uint64{0, 8, PageSize - 8, PageSize - 4, PageSize - 1, PageSize, 3*PageSize - 3, size - 16, size - 9, size - 8} {
		if got, want := m.Word64(addr), byteWise(addr); got != want {
			t.Errorf("Word64(%#x) = %#x, byte-wise %#x", addr, got, want)
		}
		v := 0x0102030405060708 ^ addr<<32
		want := m.Dump()
		for i := 0; i < 8; i++ {
			want[addr+uint64(i)] = byte(v >> (8 * i))
		}
		m.SetWord64(addr, v)
		if !bytes.Equal(m.Dump(), want) {
			t.Errorf("SetWord64(%#x) is not the eight byte stores", addr)
		}
	}

	for _, addr := range []uint64{size - 7, size - 1, size, size + 8, ^uint64(0) - 3, ^uint64(0)} {
		for name, access := range map[string]func(){
			"word read":  func() { m.Word64(addr) },
			"word write": func() { m.SetWord64(addr, ^uint64(0)) },
		} {
			tail := m.Word64(size - 8)
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				access()
				return
			}()
			if want := fmt.Sprintf("mem: raw %s %#x out of range", name, addr); msg != want {
				t.Errorf("%s at %#x: panic %q, want %q", name, addr, msg, want)
			}
			if m.Word64(size-8) != tail {
				t.Errorf("%s at %#x stored bytes before panicking", name, addr)
			}
		}
	}
}
