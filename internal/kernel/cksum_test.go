package kernel

import (
	"testing"

	"rio/internal/sim"
)

// TestCksumBytesUnrolled holds the word-folding checksum to the byte-serial
// reference, bit for bit. Random content of every length from 0 to 100 and
// of block sizes covers the 32-byte loop and the byte tail; the content a
// crash campaign hashes covers the fold: all-zero and all-0xff buffers
// (0xff is the largest value in every SWAR lane), one nonzero byte at each
// offset of 64 bytes, zero runs that start and end off 32-byte boundaries,
// and 8 KB blocks whose content ends at each 32-byte boundary, followed by
// zeros. Registry checksums and golden crash transcripts are derived from
// these values; any divergence is silent corruption of the warm-reboot
// certification.
func TestCksumBytesUnrolled(t *testing.T) {
	rng := sim.NewRand(1996)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	check := func(what string, b []byte) {
		t.Helper()
		if got, want := CksumBytes(b), cksumBytesRef(b); got != want {
			t.Fatalf("%s (len %d): CksumBytes %#x, reference %#x", what, len(b), got, want)
		}
	}
	for n := 0; n <= 100; n++ {
		check("random", random(n))
	}
	for _, n := range []int{511, 512, 4095, 4096, 8192} {
		check("random", random(n))
	}
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 8192} {
		ones := make([]byte, n)
		for i := range ones {
			ones[i] = 0xff
		}
		check("zeros", make([]byte, n))
		check("0xff", ones)
	}
	for i := 0; i < 64; i++ {
		for _, v := range []byte{1, 0x80, 0xff} {
			b := make([]byte, 64)
			b[i] = v
			check("one byte", b)
		}
	}
	for _, lo := range []int{0, 1, 7, 13, 31, 33, 40} {
		for _, hi := range []int{lo + 1, lo + 5, lo + 31, lo + 45, lo + 64, lo + 97, 200} {
			b := random(200)
			clear(b[lo:hi])
			check("zero run", b)
		}
	}
	block := random(8192)
	for end := 0; end <= len(block); end += 32 {
		b := make([]byte, len(block))
		copy(b, block[:end])
		check("zero tail", b)
	}
}

// cksumSink keeps the benchmarked checksum from being optimised away.
var cksumSink uint64

// BenchmarkCksumBytes hashes one 8 KB block of each kind of content the
// checksum meets: a zero page; a campaign-like block, 2.3 KB of sparse
// content (every third word zero) and then zeros, as metadata blocks and
// short files are; and dense random bytes.
func BenchmarkCksumBytes(b *testing.B) {
	rng := sim.NewRand(1)
	sparse, dense := make([]byte, 8192), make([]byte, 8192)
	for i := range dense {
		dense[i] = byte(rng.Uint64())
		if i < 2304 && i/8%3 != 2 {
			sparse[i] = dense[i]
		}
	}
	for _, c := range []struct {
		name string
		buf  []byte
	}{{"zero", make([]byte, 8192)}, {"sparse", sparse}, {"dense", dense}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.buf)))
			for i := 0; i < b.N; i++ {
				cksumSink = CksumBytes(c.buf)
			}
		})
	}
}
