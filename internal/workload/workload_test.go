package workload

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rio/internal/fs"
	"rio/internal/machine"
	"rio/internal/sim"
	"rio/internal/warmreboot"
)

// Compile-time interface checks: every workload the scenario engine can
// name satisfies the contract.
var (
	_ Workload = (*MemTest)(nil)
	_ Workload = (*TxnTest)(nil)
	_ Workload = (*MetaCache)(nil)
	_ Workload = (*MailSpool)(nil)
	_ Workload = (*HotKey)(nil)
	_ Workload = (*Scan)(nil)
)

// --- keys.go ---

func TestKeyCDFShape(t *testing.T) {
	for _, skew := range []float64{0, 0.5, 1.0, 1.5} {
		cdf := NewKeyCDF(50, skew)
		if len(cdf) != 50 {
			t.Fatalf("skew %v: len %d", skew, len(cdf))
		}
		prev := 0.0
		for i, v := range cdf {
			if v < prev {
				t.Fatalf("skew %v: cdf not monotone at %d", skew, i)
			}
			prev = v
		}
		if cdf[49] < 0.999999 || cdf[49] > 1.000001 {
			t.Fatalf("skew %v: cdf does not end at 1: %v", skew, cdf[49])
		}
	}
}

func TestKeyCDFSkewConcentrates(t *testing.T) {
	uniform, zipf := NewKeyCDF(100, 0), NewKeyCDF(100, 1.2)
	r1, r2 := sim.NewRand(1), sim.NewRand(1)
	u0, z0 := 0, 0
	for i := 0; i < 5000; i++ {
		if uniform.Pick(r1) < 10 {
			u0++
		}
		if zipf.Pick(r2) < 10 {
			z0++
		}
	}
	if u0 < 300 || u0 > 700 {
		t.Fatalf("uniform top-10 share off: %d/5000", u0)
	}
	if z0 < 2*u0 {
		t.Fatalf("zipf does not concentrate: top-10 %d vs uniform %d", z0, u0)
	}
}

func TestKeyCDFDeterministic(t *testing.T) {
	cdf := NewKeyCDF(64, 0.99)
	r1 := sim.NewRand(sim.Mix(7, 9))
	r2 := sim.NewRand(sim.Mix(7, 9))
	for i := 0; i < 1000; i++ {
		if a, b := cdf.Pick(r1), cdf.Pick(r2); a != b {
			t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
		}
	}
}

func TestKeyCDFPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewKeyCDF(0, 1)
}

// --- shared harness ---

// runClean drives w for n steps on a fresh rio machine and demands a
// clean verdict, returning the machine for follow-on damage injection.
func runClean(t *testing.T, w Workload, n int) *machine.Machine {
	t.Helper()
	m := newRio(t)
	if err := w.Setup(m.FS); err != nil {
		t.Fatalf("setup: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Step(m.FS); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	v := w.Check(m.FS)
	if !v.Clean() {
		t.Fatalf("verdict on healthy system not clean: %+v", v)
	}
	if v.Checked == 0 {
		t.Fatal("verdict checked nothing")
	}
	return m
}

// flipByte XORs one byte of path at off behind the workload's back.
func flipByte(t *testing.T, m *machine.Machine, path string, off int64) {
	t.Helper()
	f, err := m.FS.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	b[0] ^= 0x5a
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	f.Close()
}

// --- metacache ---

func TestMetaCacheCleanAndDeterministic(t *testing.T) {
	verdicts := func() string {
		mc := NewMetaCache(21, 12, 0.9)
		m := runClean(t, mc, 400)
		_ = m
		return fmt.Sprintf("%v/%v", mc.srcVer, mc.cacheVer)
	}
	if a, b := verdicts(), verdicts(); a != b {
		t.Fatalf("metacache state diverged across identical runs:\n%s\n%s", a, b)
	}
}

func TestMetaCacheGoldenCorruption(t *testing.T) {
	mc := NewMetaCache(23, 8, 0.8)
	m := runClean(t, mc, 300)
	// Smash a source payload byte: the frame checksum must catch it.
	victim := -1
	for i, v := range mc.srcVer {
		if v > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no source files written")
	}
	flipByte(t, m, mc.srcPath(victim), int64(mcSrcHeader))
	v := mc.Check(m.FS)
	if len(v.Corruptions) == 0 {
		t.Fatal("smashed source payload not detected")
	}
}

func TestMetaCacheGoldenLyingHit(t *testing.T) {
	mc := NewMetaCache(25, 8, 0.8)
	m := runClean(t, mc, 300)
	// Find a file whose cache entry matches its source version, then
	// forge an internally-valid entry whose digest lies.
	victim := -1
	for i := range mc.srcVer {
		if mc.srcVer[i] > 0 && mc.cacheVer[i] == int64(mc.srcVer[i]) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no cached files")
	}
	forged := mc.entryFrame(victim, mc.srcVer[victim])
	// Flip a digest bit, then re-seal the frame checksum so only the
	// lie remains detectable.
	forged[20] ^= 0x1
	seal := sim.FNV1a64(forged[8 : mcEntryLen-8])
	for j := 0; j < 8; j++ {
		forged[mcEntryLen-8+j] = byte(seal >> (56 - 8*j))
	}
	f, err := m.FS.Open(mc.cachePath(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(forged, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := mc.Check(m.FS)
	found := false
	for _, c := range v.Corruptions {
		if c.Path == mc.cachePath(victim) {
			found = true
		}
	}
	if !found {
		t.Fatalf("lying cache hit not convicted: %+v", v)
	}
}

func TestMetaCacheGoldenLostVersion(t *testing.T) {
	mc := NewMetaCache(27, 6, 0.7)
	m := runClean(t, mc, 500)
	// Roll a source back one acked version: Lost must trip.
	victim := -1
	for i, v := range mc.srcVer {
		if v >= 2 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no multi-version source")
	}
	f, err := m.FS.Open(mc.srcPath(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(mc.srcFrame(victim, mc.srcVer[victim]-1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := mc.Check(m.FS)
	if v.Lost == 0 {
		t.Fatalf("version rollback not counted as lost: %+v", v)
	}
}

func TestMetaCacheStaleEntryIsMiss(t *testing.T) {
	mc := NewMetaCache(29, 6, 0.7)
	m := runClean(t, mc, 500)
	// A cache entry one version behind its source is a miss, never a
	// conviction — the correct-or-miss contract.
	victim := -1
	for i := range mc.srcVer {
		if mc.srcVer[i] >= 2 && mc.cacheVer[i] == int64(mc.srcVer[i]) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("no suitable file this seed")
	}
	f, err := m.FS.Open(mc.cachePath(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(mc.entryFrame(victim, mc.srcVer[victim]-1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v := mc.Check(m.FS); !v.Clean() {
		t.Fatalf("stale-but-valid entry convicted: %+v", v)
	}
}

// An online lookup whose source or cache entry holds a frame too short
// for the fields it reads counts one mismatch and ends the step; it used
// to slice past the frame and panic the run.
func TestMetaCacheLookupShortFrame(t *testing.T) {
	for _, c := range []struct {
		name  string
		cache bool // cut the cache entry, not the source
		n     int  // bytes of the frame left
	}{
		{"source-header", false, 12},
		{"source-payload", false, mcSrcHeader + 8},
		{"entry-version", true, 12},
		{"entry-digest", true, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			mc := NewMetaCache(25, 8, 0.8)
			m := runClean(t, mc, 300)
			i := 0
			for mc.srcVer[i] == 0 || mc.cacheVer[i] != int64(mc.srcVer[i]) {
				i++
			}
			path, img := mc.srcPath(i), mc.srcFrame(i, mc.srcVer[i])
			if c.cache {
				path, img = mc.cachePath(i), mc.entryFrame(i, mc.srcVer[i])
			}
			if err := m.FS.Unlink(path); err != nil {
				t.Fatal(err)
			}
			if _, err := Apply(m.FS, Op{Kind: OpCreate, Path: path, Data: img[:c.n]}); err != nil {
				t.Fatal(err)
			}
			before := mc.ReadMismatches
			if err := mc.doLookup(m.FS, i); err != nil {
				t.Fatal(err)
			}
			if mc.ReadMismatches != before+1 {
				t.Fatalf("short frame counted %d mismatches, want 1", mc.ReadMismatches-before)
			}
		})
	}
}

// --- mailspool ---

func TestMailSpoolCleanRun(t *testing.T) {
	ms := NewMailSpool(31, 24)
	runClean(t, ms, 500)
	if ms.ReadMismatches != 0 {
		t.Fatalf("online mismatches on healthy system: %d", ms.ReadMismatches)
	}
	if ms.next < 2 {
		t.Fatal("no deliveries")
	}
}

func TestMailSpoolGoldenLostDelivery(t *testing.T) {
	ms := NewMailSpool(33, 24)
	m := runClean(t, ms, 400)
	if len(ms.live) == 0 {
		t.Fatal("no live messages")
	}
	if err := m.FS.Unlink(ms.newPath(ms.live[0])); err != nil {
		t.Fatal(err)
	}
	v := ms.Check(m.FS)
	if v.Lost == 0 {
		t.Fatalf("vanished acked delivery not counted lost: %+v", v)
	}
}

func TestMailSpoolGoldenTornRename(t *testing.T) {
	ms := NewMailSpool(35, 24)
	m := runClean(t, ms, 400)
	if len(ms.live) == 0 {
		t.Fatal("no live messages")
	}
	// Make a live message visible in tmp/ too: the rename shows on
	// both sides.
	id := ms.live[0]
	f, err := m.FS.Create(ms.tmpPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ms.frame(id)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := ms.Check(m.FS)
	if v.Torn == 0 {
		t.Fatalf("double-sided rename not counted torn: %+v", v)
	}
}

func TestMailSpoolGoldenResurrection(t *testing.T) {
	ms := NewMailSpool(37, 16)
	m := runClean(t, ms, 500)
	if len(ms.dead) == 0 {
		t.Fatal("no consumed messages")
	}
	id := ms.dead[len(ms.dead)-1]
	f, err := m.FS.Create(ms.newPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ms.frame(id)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := ms.Check(m.FS)
	if v.Lost == 0 {
		t.Fatalf("resurrected consumed message not counted lost: %+v", v)
	}
}

// --- hotkey ---

func TestHotKeyCleanRun(t *testing.T) {
	hk := NewHotKey(41, 48, 1.1, 100)
	runClean(t, hk, 600)
	if hk.ReadMismatches != 0 {
		t.Fatalf("online mismatches: %d", hk.ReadMismatches)
	}
}

func TestHotKeyFlashCrowdMovesHotSet(t *testing.T) {
	// The most-updated key must differ across epochs for at least one
	// epoch pair — otherwise the rotation is dead code.
	hk := NewHotKey(43, 32, 1.3, 50)
	m := newRio(t)
	if err := hk.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	tops := map[int]bool{}
	for e := 0; e < 4; e++ {
		counts := make([]int, hk.Keys)
		for i := 0; i < 50; i++ {
			before := append([]uint64{}, hk.ver...)
			if err := hk.Step(m.FS); err != nil {
				t.Fatal(err)
			}
			for k := range before {
				if hk.ver[k] != before[k] {
					counts[k]++
				}
			}
		}
		top, best := -1, -1
		for k, c := range counts {
			if c > best {
				top, best = k, c
			}
		}
		tops[top] = true
	}
	if len(tops) < 2 {
		t.Fatalf("hot key never moved across 4 epochs: %v", tops)
	}
}

func TestHotKeyGoldenLostUpdate(t *testing.T) {
	hk := NewHotKey(45, 24, 1.2, 100)
	m := runClean(t, hk, 600)
	victim := -1
	for k, v := range hk.ver {
		if v >= 2 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no multi-version key")
	}
	f, err := m.FS.Open(hk.path(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(hk.frame(victim, hk.ver[victim]-1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := hk.Check(m.FS)
	if v.Lost == 0 {
		t.Fatalf("rolled-back key not counted lost: %+v", v)
	}
}

func TestHotKeyGoldenSmashedFrame(t *testing.T) {
	hk := NewHotKey(47, 24, 1.2, 100)
	m := runClean(t, hk, 400)
	victim := -1
	for k, v := range hk.ver {
		if v > 0 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no written key")
	}
	flipByte(t, m, hk.path(victim), int64(hkHeader))
	v := hk.Check(m.FS)
	if len(v.Corruptions) == 0 {
		t.Fatalf("smashed key frame not detected: %+v", v)
	}
}

// --- scan ---

func TestScanCleanRun(t *testing.T) {
	sc := NewScan(51, 3, 6)
	runClean(t, sc, 500)
	if sc.ReadMismatches != 0 {
		t.Fatalf("online scan mismatches: %d", sc.ReadMismatches)
	}
	compacted := false
	for _, g := range sc.gen {
		if g > 1 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("no segment ever compacted")
	}
}

func TestScanGoldenSmashedBatch(t *testing.T) {
	sc := NewScan(53, 2, 8)
	m := runClean(t, sc, 300)
	victim := -1
	for seg, n := range sc.batches {
		if n > 0 {
			victim = seg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no appended batches")
	}
	flipByte(t, m, sc.path(victim), int64(scanHeader+8))
	v := sc.Check(m.FS)
	if len(v.Corruptions) == 0 {
		t.Fatalf("smashed batch not detected: %+v", v)
	}
}

func TestScanGoldenLostGeneration(t *testing.T) {
	sc := NewScan(55, 2, 4)
	m := runClean(t, sc, 400)
	victim := -1
	for seg, g := range sc.gen {
		if g >= 2 {
			victim = seg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no compacted segment")
	}
	// Roll the header back a generation: acked compaction lost.
	f, err := m.FS.Open(sc.path(victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(sc.headerFrame(victim, sc.gen[victim]-1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v := sc.Check(m.FS)
	if v.Lost == 0 && len(v.Corruptions) == 0 {
		t.Fatalf("generation rollback not detected: %+v", v)
	}
}

// A segment whose inode size field was smashed to -1 on disk survives a
// cold boot (fsck checks pointers, not sizes). Check must report it as a
// corruption; sizing a buffer from the field panicked the checker.
func TestScanSmashedSizeIsCorruption(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyUFSWTWrite))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScan(57, 1, 8)
	sc.WriteThrough = true
	if err := sc.Setup(m.FS); err != nil {
		t.Fatal(err)
	}
	if err := sc.doAppend(m.FS, 0); err != nil {
		t.Fatal(err)
	}
	st, err := m.FS.Stat(sc.path(0))
	if err != nil {
		t.Fatal(err)
	}
	m.FS.Sync()

	sector := int(m.FS.SB.InodeStart+int64(st.Ino)/fs.InodesPerBlock) * fs.SectorsPerBlock
	blk := make([]byte, fs.BlockSize)
	if _, err := m.Disk.Read(sector, blk); err != nil {
		t.Fatal(err)
	}
	off := int(st.Ino)%fs.InodesPerBlock*fs.InodeSize + 8 // Inode.Size
	binary.LittleEndian.PutUint64(blk[off:], ^uint64(0))
	if _, err := m.Disk.Write(sector, blk); err != nil {
		t.Fatal(err)
	}
	m.Kernel.Panic("crash after the inode was smashed")
	m.CrashFinish()
	if _, err := warmreboot.Cold(m, 57); err != nil {
		t.Fatal(err)
	}
	if st, err := m.FS.Stat(sc.path(0)); err != nil || st.Size != -1 {
		t.Fatalf("smashed size did not survive the cold boot: %+v, %v", st, err)
	}

	v := sc.Check(m.FS)
	if len(v.Corruptions) != 1 || v.Corruptions[0].Path != sc.path(0) ||
		!strings.Contains(v.Corruptions[0].Detail, "implausible size -1") {
		t.Fatalf("smashed size not reported as one corruption: %+v", v)
	}
}
