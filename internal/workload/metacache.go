package workload

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// MetaCache reproduces the classic "derived cache in front of an
// authoritative file set" consumer (filedatacache's shape): a tree of
// source files under /src, and a cache of derived metadata under
// /mcache keyed by (path, version, size). The simulator's fs records
// no mtimes, so the source frame carries an explicit version stamp in
// the same role: a cache entry is a hit only when its recorded
// (version, size) matches the source's current frame, exactly as
// filedatacache keys on (mtime, size).
//
// The discipline under crash is correct-or-miss: after recovery a
// cache entry may be stale — its recorded version no longer matches
// the source — and that is a miss, never corruption. What must not
// happen is a *lying hit*: an entry whose key matches the current
// source but whose digest disagrees with the source's content, which
// would hand the application derived data for bytes that were never
// there. Check convicts exactly that, plus frames smashed outside the
// one in-flight op and acked state that rolled back.
//
// Source frame:  magic u64 | ver u64 | plen u32 | payload | cksum u64
// Cache entry:   magic u64 | ver u64 | size u32 | digest u64 | cksum u64
// Payloads are a pure function of (seed, file, ver), so any decoded
// version is checkable against the oracle.
type MetaCache struct {
	// Files is the source-file count; Skew biases update/lookup
	// popularity through the shared KeyCDF.
	Files int
	// WriteThrough fsyncs after every completed write, for the
	// disk-based baseline column.
	WriteThrough bool

	seed uint64
	rng  *sim.Rand
	cdf  KeyCDF

	// srcVer[i] is the last source version whose write completed;
	// 0 = never created. cacheVer[i] is the version the completed
	// cache entry records; -1 = absent (never filled or evicted).
	srcVer   []uint64
	cacheVer []int64
	steps    int

	// inFlight is the op interrupted by a crash: a write to the source
	// or to the cache entry.
	inFlight Op

	// ReadMismatches counts online lookup failures (a hit whose digest
	// disagreed with the payload just read).
	ReadMismatches int
}

const (
	mcSrcMagic   = 0x52696f4d63537263 // "RioMcSrc"
	mcCacheMagic = 0x52696f4d63456e74 // "RioMcEnt"
	mcSrcHeader  = 8 + 8 + 4
	mcEntryLen   = 8 + 8 + 4 + 8 + 8
)

// NewMetaCache returns the workload over `files` source files.
func NewMetaCache(seed uint64, files int, skew float64) *MetaCache {
	if files < 1 {
		files = 16
	}
	return &MetaCache{
		Files:    files,
		seed:     seed,
		rng:      sim.NewRand(sim.Mix(seed, 0x4D43A11E)),
		cdf:      NewKeyCDF(files, skew),
		srcVer:   make([]uint64, files),
		cacheVer: make([]int64, files),
	}
}

// Name implements Workload.
func (mc *MetaCache) Name() string { return "metacache" }

func (mc *MetaCache) srcPath(i int) string   { return fmt.Sprintf("/src/f%04d", i) }
func (mc *MetaCache) cachePath(i int) string { return fmt.Sprintf("/mcache/f%04d", i) }

// plen is the per-file payload length — constant per file so rewrites
// are exactly in place and cannot leave stale frame tails.
func (mc *MetaCache) plen(i int) int {
	return 128 + int(sim.Mix(mc.seed, uint64(i))%1024)
}

// payload is the oracle content of (file, ver).
func (mc *MetaCache) payload(i int, ver uint64) []byte {
	return kernel.FillBytes(mc.plen(i), sim.Mix(mc.seed, uint64(i), ver)|1)
}

// srcFrame builds the source file image for (file, ver).
func (mc *MetaCache) srcFrame(i int, ver uint64) []byte {
	p := mc.payload(i, ver)
	buf := make([]byte, 0, mcSrcHeader+len(p)+8)
	buf = binary.BigEndian.AppendUint64(buf, mcSrcMagic)
	buf = binary.BigEndian.AppendUint64(buf, ver)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
	buf = append(buf, p...)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:]))
}

// entryFrame builds the cache entry recording (ver, size, digest) for
// file i — the derived metadata the cache exists to serve.
func (mc *MetaCache) entryFrame(i int, ver uint64) []byte {
	p := mc.payload(i, ver)
	buf := make([]byte, 0, mcEntryLen)
	buf = binary.BigEndian.AppendUint64(buf, mcCacheMagic)
	buf = binary.BigEndian.AppendUint64(buf, ver)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
	buf = binary.BigEndian.AppendUint64(buf, sim.FNV1a64(p))
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:]))
}

// put rewrites path with img in place, fsyncing when the workload runs
// write-through. Frames are fixed-size per file and never shrink, so a
// put of the full image is an exact replacement.
func (mc *MetaCache) put(fsys *fs.FS, path string, img []byte) error {
	_, err := do(fsys, &mc.inFlight, Op{Kind: OpPut, Path: path, Data: img, Sync: mc.WriteThrough})
	return err
}

// Setup creates the two directories. Files appear on first update.
func (mc *MetaCache) Setup(fsys *fs.FS) error {
	for i := range mc.cacheVer {
		mc.cacheVer[i] = -1
	}
	return mkdirs(fsys, "/src", "/mcache")
}

// Step executes one operation: update (rewrite source, refill cache),
// lookup (read source, validate the cache hit), or evict (drop the
// cache entry).
func (mc *MetaCache) Step(fsys *fs.FS) error {
	mc.steps++
	i := mc.cdf.Pick(mc.rng)
	switch r := mc.rng.Float64(); {
	case r < 0.45 || mc.srcVer[i] == 0:
		return mc.doUpdate(fsys, i)
	case r < 0.85:
		return mc.doLookup(fsys, i)
	default:
		return mc.doEvict(fsys, i)
	}
}

// doUpdate bumps file i to the next version: source first, then the
// derived entry — the order every real derived cache uses, so a crash
// between the two leaves a detectably stale entry, not a lying one.
func (mc *MetaCache) doUpdate(fsys *fs.FS, i int) error {
	ver := mc.srcVer[i] + 1
	if err := mc.put(fsys, mc.srcPath(i), mc.srcFrame(i, ver)); err != nil {
		return err
	}
	mc.srcVer[i] = ver
	return mc.fill(fsys, i, ver)
}

// fill writes file i's cache entry for source version ver.
func (mc *MetaCache) fill(fsys *fs.FS, i int, ver uint64) error {
	if err := mc.put(fsys, mc.cachePath(i), mc.entryFrame(i, ver)); err != nil {
		return err
	}
	mc.cacheVer[i] = int64(ver)
	return nil
}

// doLookup is the cache's read path: stat the source, consult the
// entry; on a key match the digest must agree with the payload (a
// lying hit is counted online), on a miss or stale key the entry is
// refilled.
func (mc *MetaCache) doLookup(fsys *fs.FS, i int) error {
	if mc.srcVer[i] == 0 {
		return mc.doUpdate(fsys, i)
	}
	// A frame too short for a field read below is undecodable: it counts
	// one mismatch and ends the step.
	undecodable := func() error { mc.ReadMismatches++; return nil }
	src, err := mc.readFrame(fsys, mc.srcPath(i))
	if err != nil {
		return err
	}
	if len(src) < 16 {
		return undecodable()
	}
	srcVer := binary.BigEndian.Uint64(src[8:])
	ent, err := mc.readFrame(fsys, mc.cachePath(i))
	if err == nil && len(ent) < 16 {
		return undecodable()
	}
	if err == fs.ErrNotFound || (err == nil && binary.BigEndian.Uint64(ent[8:]) != srcVer) {
		return mc.fill(fsys, i, srcVer) // miss or stale: the derived-cache slow path
	}
	if err != nil {
		return err
	}
	// Hit: the recorded digest must match the bytes we just read.
	if len(src) < mcSrcHeader || len(ent) < mcEntryLen-8 { // the digest ends at the checksum
		return undecodable()
	}
	plen := int(binary.BigEndian.Uint32(src[16:]))
	if len(src) < mcSrcHeader+plen {
		return undecodable()
	}
	if sim.FNV1a64(src[mcSrcHeader:mcSrcHeader+plen]) != binary.BigEndian.Uint64(ent[20:]) {
		mc.ReadMismatches++
	}
	return nil
}

// doEvict drops the cache entry, exercising the rebuild path.
func (mc *MetaCache) doEvict(fsys *fs.FS, i int) error {
	if mc.cacheVer[i] < 0 {
		return mc.doLookup(fsys, i)
	}
	if _, err := do(fsys, &mc.inFlight, Op{Kind: OpUnlink, Path: mc.cachePath(i)}); err != nil {
		return err
	}
	mc.cacheVer[i] = -1
	return nil
}

// readFrame reads a whole file; the caller decodes it. An empty file
// holds no frame and is unreadable, like a missing one.
func (mc *MetaCache) readFrame(fsys *fs.FS, path string) ([]byte, error) {
	r, err := Apply(fsys, Op{Kind: OpReadFile, Path: path})
	if err == nil && len(r.Data) == 0 {
		err = errors.New("empty file")
	}
	return r.Data, err
}

// Check implements Workload: every source must decode at its acked (or
// in-flight) version with oracle-exact bytes, and every cache entry
// must be absent, internally valid at a version the oracle acked, or
// the in-flight fill — with the cardinal rule that an entry keying the
// current source version must carry the current digest.
func (mc *MetaCache) Check(fsys *fs.FS) Verdict {
	var v Verdict
	fl := mc.inFlight
	for i := 0; i < mc.Files; i++ {
		srcInFlight := fl.Path == mc.srcPath(i)
		cacheInFlight := fl.Path == mc.cachePath(i)
		if mc.srcVer[i] == 0 && !srcInFlight && !cacheInFlight {
			continue // never created
		}
		v.Checked++

		// Source file.
		curVer := mc.srcVer[i] // post-crash authoritative version, refined below
		src, err := mc.readFrame(fsys, mc.srcPath(i))
		okVers := map[uint64]bool{mc.srcVer[i]: true}
		if srcInFlight {
			okVers[mc.srcVer[i]+1] = true
			delete(okVers, 0)
		}
		switch {
		case err != nil:
			if !(srcInFlight && mc.srcVer[i] == 0) {
				v.Corruptions = append(v.Corruptions,
					Corruption{mc.srcPath(i), "unreadable: " + err.Error()})
				if mc.srcVer[i] > 0 {
					v.Lost++
				}
				continue
			}
			continue // creation was in flight; absent is fine
		default:
			ver, derr := mc.decodeSrc(i, src)
			if derr != "" {
				if !srcInFlight {
					v.Corruptions = append(v.Corruptions, Corruption{mc.srcPath(i), derr})
				}
				continue // undecodable source: no key to hold the cache to
			}
			if !okVers[ver] {
				if ver < mc.srcVer[i] {
					v.Lost++
					v.Corruptions = append(v.Corruptions, Corruption{mc.srcPath(i),
						fmt.Sprintf("acked version lost: at v%d, acked v%d", ver, mc.srcVer[i])})
				} else {
					v.Corruptions = append(v.Corruptions, Corruption{mc.srcPath(i),
						fmt.Sprintf("phantom version v%d (acked v%d)", ver, mc.srcVer[i])})
				}
				continue
			}
			curVer = ver
		}

		// Cache entry.
		ent, err := mc.readFrame(fsys, mc.cachePath(i))
		if err != nil {
			// Absent or unreadable: a miss. Losing an acked entry is a
			// rebuildable miss by design (correct-or-miss), so absence
			// is never corruption — that is the whole point of keying
			// derived state.
			continue
		}
		ever, size, digest, derr := mc.decodeEntry(ent)
		if derr != "" {
			if !cacheInFlight {
				v.Corruptions = append(v.Corruptions, Corruption{mc.cachePath(i), derr})
			}
			continue
		}
		if ever == curVer {
			// A hit after recovery: the derived metadata must be true.
			p := mc.payload(i, curVer)
			if int(size) != len(p) || digest != sim.FNV1a64(p) {
				v.Corruptions = append(v.Corruptions, Corruption{mc.cachePath(i),
					fmt.Sprintf("lying hit: entry keys v%d but digest disagrees", ever)})
			}
			continue
		}
		// Stale entry = miss; it must still be an entry the oracle
		// could have written (internally consistent with some real
		// version), else its bytes were smashed.
		p := mc.payload(i, ever)
		if ever > mc.srcVer[i]+1 || int(size) != len(p) || digest != sim.FNV1a64(p) {
			v.Corruptions = append(v.Corruptions, Corruption{mc.cachePath(i),
				fmt.Sprintf("smashed entry at v%d", ever)})
		}
	}
	return v
}

// decodeSrc validates a source frame end to end; returns the version
// or a non-empty failure detail.
func (mc *MetaCache) decodeSrc(i int, b []byte) (uint64, string) {
	want := mcSrcHeader + mc.plen(i) + 8
	if len(b) != want {
		return 0, fmt.Sprintf("size %d, want %d", len(b), want)
	}
	if binary.BigEndian.Uint64(b) != mcSrcMagic {
		return 0, "bad magic"
	}
	if binary.BigEndian.Uint64(b[want-8:]) != sim.FNV1a64(b[8:want-8]) {
		return 0, "checksum mismatch"
	}
	ver := binary.BigEndian.Uint64(b[8:])
	if int(binary.BigEndian.Uint32(b[16:])) != mc.plen(i) {
		return 0, "length field mismatch"
	}
	p := mc.payload(i, ver)
	for j := range p {
		if b[mcSrcHeader+j] != p[j] {
			return 0, fmt.Sprintf("payload byte %d disagrees with oracle for v%d", j, ver)
		}
	}
	return ver, ""
}

// decodeEntry validates a cache entry frame; returns (ver, size,
// digest) or a non-empty failure detail.
func (mc *MetaCache) decodeEntry(b []byte) (uint64, uint32, uint64, string) {
	if len(b) != mcEntryLen {
		return 0, 0, 0, fmt.Sprintf("entry size %d, want %d", len(b), mcEntryLen)
	}
	if binary.BigEndian.Uint64(b) != mcCacheMagic {
		return 0, 0, 0, "bad entry magic"
	}
	if binary.BigEndian.Uint64(b[mcEntryLen-8:]) != sim.FNV1a64(b[8:mcEntryLen-8]) {
		return 0, 0, 0, "entry checksum mismatch"
	}
	return binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint32(b[16:]),
		binary.BigEndian.Uint64(b[20:]), ""
}
