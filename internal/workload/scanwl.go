package workload

import (
	"encoding/binary"
	"fmt"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// Scan is append-and-scan analytics: a handful of large segment files
// under /scan, each a generation header followed by fixed-size batch
// frames. Writers append batches; scanners read a whole segment
// front-to-back validating every frame (the long sequential reads that
// churn the cache's clean pages); compaction retires a segment and
// starts the next generation empty. The crash questions are the
// log-shaped ones: did an acked append survive, and is the tail after
// recovery a clean frame boundary rather than an interleaving of
// generations?
//
// Segment layout:
//
//	header: magic u64 | seg u64 | gen u64 | cksum u64
//	batch:  batch# u64 | payload (blen-24 bytes) | cksum u64
//
// Batch payloads are pure functions of (seed, seg, gen, batch#), and
// every batch in a segment has the same frame size, so Check can
// decode any prefix and date what it finds.
type Scan struct {
	// Segments is the segment count; BatchesPerSeg triggers compaction
	// when a segment fills.
	Segments      int
	BatchesPerSeg int
	// WriteThrough fsyncs every append and compaction.
	WriteThrough bool

	seed uint64
	rng  *sim.Rand

	gen     []uint64 // current generation per segment (starts at 1 after setup)
	batches []int    // acked batch count in the current generation
	steps   int

	inFlight *scanOp

	// ReadMismatches counts online scan-side frame failures.
	ReadMismatches int
}

// scanOp is the one in-flight segment mutation.
type scanOp struct {
	seg   int
	phase int // scAppend (batch write) or scCompact (unlink+new header)
}

const (
	scAppend = iota
	scCompact
)

const (
	scanMagic  = 0x52696f5363616e30 // "RioScan0"
	scanHeader = 8 + 8 + 8 + 8
)

// NewScan returns the workload over `segments` segment files.
func NewScan(seed uint64, segments, batchesPerSeg int) *Scan {
	if segments < 1 {
		segments = 4
	}
	if batchesPerSeg < 2 {
		batchesPerSeg = 32
	}
	return &Scan{
		Segments:      segments,
		BatchesPerSeg: batchesPerSeg,
		seed:          seed,
		rng:           sim.NewRand(sim.Mix(seed, 0x5CA4F10D)),
		gen:           make([]uint64, segments),
		batches:       make([]int, segments),
	}
}

// Name implements Workload.
func (sc *Scan) Name() string { return "scan" }

func (sc *Scan) path(seg int) string { return fmt.Sprintf("/scan/seg%03d", seg) }

// blen is the fixed batch-frame size for a segment: one or a few
// cache-block-scale rows per frame.
func (sc *Scan) blen(seg int) int {
	return 256 + int(sim.Mix(sc.seed, uint64(seg), 0xB1E4)%1024)
}

// headerFrame builds the segment header for (seg, gen).
func (sc *Scan) headerFrame(seg int, gen uint64) []byte {
	buf := make([]byte, 0, scanHeader)
	buf = binary.BigEndian.AppendUint64(buf, scanMagic)
	buf = binary.BigEndian.AppendUint64(buf, uint64(seg))
	buf = binary.BigEndian.AppendUint64(buf, gen)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:24]))
}

// batchFrame builds batch frame b of (seg, gen).
func (sc *Scan) batchFrame(seg int, gen uint64, b int) []byte {
	n := sc.blen(seg)
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint64(buf, uint64(b))
	buf = append(buf, kernel.FillBytes(n-16, sim.Mix(sc.seed, uint64(seg), gen, uint64(b))|1)...)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[:n-8]))
}

// Setup creates /scan and generation-1 headers for every segment.
func (sc *Scan) Setup(fsys *fs.FS) error {
	if err := fsys.Mkdir("/scan"); err != nil && err != fs.ErrExists {
		return err
	}
	for seg := 0; seg < sc.Segments; seg++ {
		f, err := fsys.Create(sc.path(seg))
		if err != nil {
			return err
		}
		if _, err := f.Write(sc.headerFrame(seg, 1)); err != nil {
			return err
		}
		if err := fsys.Fsync(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		sc.gen[seg] = 1
		sc.batches[seg] = 0
	}
	return nil
}

// Step appends a batch, scans a segment, or compacts a full one.
func (sc *Scan) Step(fsys *fs.FS) error {
	sc.steps++
	seg := sc.rng.Intn(sc.Segments)
	if sc.batches[seg] >= sc.BatchesPerSeg {
		return sc.doCompact(fsys, seg)
	}
	if sc.rng.Float64() < 0.55 {
		return sc.doAppend(fsys, seg)
	}
	return sc.doScan(fsys, seg)
}

// doAppend appends the next batch frame to seg.
func (sc *Scan) doAppend(fsys *fs.FS, seg int) error {
	b := sc.batches[seg]
	off := int64(scanHeader + b*sc.blen(seg))
	sc.inFlight = &scanOp{seg: seg, phase: scAppend}
	f, err := fsys.Open(sc.path(seg))
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(sc.batchFrame(seg, sc.gen[seg], b), off); err != nil {
		return err
	}
	if sc.WriteThrough {
		if err := fsys.Fsync(f); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	sc.batches[seg] = b + 1
	sc.inFlight = nil
	return nil
}

// doScan reads the whole segment sequentially and validates every
// frame online.
func (sc *Scan) doScan(fsys *fs.FS, seg int) error {
	f, err := fsys.Open(sc.path(seg))
	if err != nil {
		return err
	}
	size := int64(scanHeader + sc.batches[seg]*sc.blen(seg))
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if d := sc.decodeSegment(seg, buf, sc.gen[seg], sc.batches[seg], -1); d != "" {
		sc.ReadMismatches++
	}
	return nil
}

// doCompact retires the full segment: unlink, then a fresh header at
// the next generation.
func (sc *Scan) doCompact(fsys *fs.FS, seg int) error {
	gen := sc.gen[seg] + 1
	sc.inFlight = &scanOp{seg: seg, phase: scCompact}
	if err := fsys.Unlink(sc.path(seg)); err != nil {
		return err
	}
	f, err := fsys.Create(sc.path(seg))
	if err != nil {
		return err
	}
	if _, err := f.Write(sc.headerFrame(seg, gen)); err != nil {
		return err
	}
	if sc.WriteThrough {
		if err := fsys.Fsync(f); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	sc.gen[seg] = gen
	sc.batches[seg] = 0
	sc.inFlight = nil
	return nil
}

// Check implements Workload: each segment must decode at its acked
// (gen, batches) — or, when the in-flight op touches it, at the
// adjacent states that op could have left behind.
func (sc *Scan) Check(fsys *fs.FS) Verdict {
	var v Verdict
	fl := sc.inFlight
	for seg := 0; seg < sc.Segments; seg++ {
		v.Checked++
		appendHere := fl != nil && fl.seg == seg && fl.phase == scAppend
		compactHere := fl != nil && fl.seg == seg && fl.phase == scCompact

		f, err := fsys.Open(sc.path(seg))
		if err != nil {
			if compactHere {
				continue // caught between unlink and new header
			}
			v.Lost++
			v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
				"segment missing: " + err.Error()})
			continue
		}
		st, err := fsys.Stat(sc.path(seg))
		if err != nil {
			f.Close()
			v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
				"stat failed: " + err.Error()})
			continue
		}
		buf := make([]byte, st.Size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			f.Close()
			v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
				"read failed: " + err.Error()})
			continue
		}
		f.Close()

		gen, derr := sc.decodeHeader(seg, buf)
		if derr != "" {
			if !compactHere {
				v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg), derr})
			}
			continue
		}
		switch {
		case gen == sc.gen[seg]:
			// Current generation: the acked batches must all be there.
			// An in-flight append may add one whole or partial frame at
			// the tail; anything else at the tail is wreckage.
			tail := -1
			want := sc.batches[seg]
			if appendHere {
				tail = want
			}
			if d := sc.decodeSegment(seg, buf, gen, want, tail); d != "" {
				if d == "short segment" && !appendHere {
					// Acked appends vanished below the acked count.
					v.Lost++
				}
				v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
					fmt.Sprintf("gen %d: %s", gen, d)})
			}
		case compactHere && gen == sc.gen[seg]+1:
			// Compaction's new header landed; segment must be empty or
			// a clean prefix of nothing (header only).
			if len(buf) != scanHeader {
				v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
					fmt.Sprintf("fresh gen %d segment has %d trailing bytes",
						gen, len(buf)-scanHeader)})
			}
		case gen < sc.gen[seg]:
			v.Lost++
			v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
				fmt.Sprintf("at gen %d, acked gen %d (compaction lost)", gen, sc.gen[seg])})
		default:
			v.Corruptions = append(v.Corruptions, Corruption{sc.path(seg),
				fmt.Sprintf("phantom gen %d (acked gen %d)", gen, sc.gen[seg])})
		}
	}
	return v
}

// decodeHeader validates the segment header; returns the generation or
// a non-empty failure detail.
func (sc *Scan) decodeHeader(seg int, b []byte) (uint64, string) {
	if len(b) < scanHeader {
		return 0, fmt.Sprintf("truncated header (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint64(b) != scanMagic ||
		binary.BigEndian.Uint64(b[8:]) != uint64(seg) ||
		binary.BigEndian.Uint64(b[24:]) != sim.FNV1a64(b[8:24]) {
		return 0, "smashed header"
	}
	return binary.BigEndian.Uint64(b[16:]), ""
}

// decodeSegment validates `want` batch frames of (seg, gen) after the
// header, plus an optional maskable tail frame index (tailOK = the one
// batch number allowed to be absent, whole, or partial; -1 for none).
// Returns "" or a failure detail; "short segment" means fewer than
// `want` complete, valid batches.
func (sc *Scan) decodeSegment(seg int, b []byte, gen uint64, want, tailOK int) string {
	n := sc.blen(seg)
	body := b[scanHeader:]
	for i := 0; i < want; i++ {
		fr := body
		if len(fr) < n {
			return "short segment"
		}
		fr = fr[:n]
		expect := sc.batchFrame(seg, gen, i)
		for j := range expect {
			if fr[j] != expect[j] {
				return fmt.Sprintf("batch %d byte %d disagrees with oracle", i, j)
			}
		}
		body = body[n:]
	}
	if len(body) == 0 {
		return ""
	}
	if tailOK < 0 {
		return fmt.Sprintf("%d trailing bytes past acked tail", len(body))
	}
	// In-flight append: the tail may be any prefix of the next frame,
	// but the bytes present must match it.
	expect := sc.batchFrame(seg, gen, tailOK)
	if len(body) > len(expect) {
		return fmt.Sprintf("%d trailing bytes past in-flight tail", len(body)-len(expect))
	}
	for j := range body {
		if body[j] != expect[j] {
			return fmt.Sprintf("in-flight tail byte %d disagrees", j)
		}
	}
	return ""
}
