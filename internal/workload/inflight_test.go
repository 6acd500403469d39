package workload

import (
	"testing"

	"rio/internal/machine"
)

// A crash inside one mutating op may leave that op half done. Each case
// below leaves one such state behind a clean run and returns the op's
// in-flight record: Check must mask the state while the op is in flight,
// and convict the same state when nothing is.

// overwrite writes data at off of path behind the workload's back.
func overwrite(t *testing.T, m *machine.Machine, path string, data []byte, off int64) {
	t.Helper()
	f, err := m.FS.Open(path)
	if err != nil {
		f, err = m.FS.Create(path)
	}
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	f.Close()
}

// masks checks that Check is clean with the op in flight (set(true)) and
// convicts with nothing in flight (set(false)).
func masks(t *testing.T, w Workload, m *machine.Machine, set func(bool)) {
	t.Helper()
	set(true)
	if v := w.Check(m.FS); !v.Clean() {
		t.Fatalf("half-done state convicted with its op in flight: %+v", v)
	}
	set(false)
	if v := w.Check(m.FS); v.Clean() {
		t.Fatal("half-done state passed with no op in flight")
	}
}

func TestMailSpoolInFlightMasking(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash func(t *testing.T, ms *MailSpool, m *machine.Machine) Op
	}{
		{"create", func(t *testing.T, ms *MailSpool, m *machine.Machine) Op {
			id := ms.next
			overwrite(t, m, ms.tmpPath(id), ms.frame(id)[:40], 0)
			return Op{Kind: OpCreate, Path: ms.tmpPath(id), Data: ms.frame(id)}
		}},
		{"rename", func(t *testing.T, ms *MailSpool, m *machine.Machine) Op {
			id := ms.next
			overwrite(t, m, ms.tmpPath(id), ms.frame(id), 0)
			overwrite(t, m, ms.newPath(id), ms.frame(id), 0)
			return Op{Kind: OpRename, Path: ms.tmpPath(id), Path2: ms.newPath(id)}
		}},
		// The consume's read shares its unlink's mask: the message may
		// be present or gone.
		{"read", func(t *testing.T, ms *MailSpool, m *machine.Machine) Op {
			id := ms.live[0]
			if err := m.FS.Unlink(ms.newPath(id)); err != nil {
				t.Fatal(err)
			}
			return Op{Kind: OpReadN, Path: ms.newPath(id), N: len(ms.frame(id))}
		}},
		{"unlink", func(t *testing.T, ms *MailSpool, m *machine.Machine) Op {
			id := ms.live[len(ms.live)-1]
			if err := m.FS.Unlink(ms.newPath(id)); err != nil {
				t.Fatal(err)
			}
			return Op{Kind: OpUnlink, Path: ms.newPath(id)}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ms := NewMailSpool(61, 16)
			m := runClean(t, ms, 300)
			fl := c.crash(t, ms, m)
			masks(t, ms, m, func(on bool) {
				ms.inFlight = Op{}
				if on {
					ms.inFlight = fl
				}
			})
		})
	}
}

func TestHotKeyInFlightMasking(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash func(t *testing.T, hk *HotKey, m *machine.Machine, k int)
	}{
		{"put-torn", func(t *testing.T, hk *HotKey, m *machine.Machine, k int) {
			overwrite(t, m, hk.path(k), hk.frame(k, hk.ver[k]+1)[:hkHeader+8], 0)
		}},
		{"put-landed", func(t *testing.T, hk *HotKey, m *machine.Machine, k int) {
			overwrite(t, m, hk.path(k), hk.frame(k, hk.ver[k]+1), 0)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			hk := NewHotKey(63, 24, 1.2, 100)
			m := runClean(t, hk, 400)
			k := 0
			for hk.ver[k] == 0 {
				k++
			}
			c.crash(t, hk, m, k)
			masks(t, hk, m, func(on bool) {
				hk.inFlight = Op{}
				if on {
					hk.inFlight = Op{Kind: OpPut, Path: hk.path(k), Data: hk.frame(k, hk.ver[k]+1)}
				}
			})
			// A read in flight masks nothing.
			hk.inFlight = Op{Kind: OpReadN, Path: hk.path(k)}
			if hk.Check(m.FS).Clean() {
				t.Fatal("a read in flight masked a rewritten key")
			}
		})
	}
}

func TestMetaCacheInFlightMasking(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash func(t *testing.T, mc *MetaCache, m *machine.Machine, i int) Op
	}{
		{"source-put", func(t *testing.T, mc *MetaCache, m *machine.Machine, i int) Op {
			img := mc.srcFrame(i, mc.srcVer[i]+1)
			overwrite(t, m, mc.srcPath(i), img[:mcSrcHeader+8], 0)
			return Op{Kind: OpPut, Path: mc.srcPath(i), Data: img}
		}},
		{"cache-put", func(t *testing.T, mc *MetaCache, m *machine.Machine, i int) Op {
			overwrite(t, m, mc.cachePath(i), mc.entryFrame(i, mc.srcVer[i]+1)[:mcEntryLen/2], 0)
			return Op{Kind: OpPut, Path: mc.cachePath(i), Data: mc.entryFrame(i, mc.srcVer[i])}
		}},
		// An unlink caught part way may leave the entry's blocks zeroed.
		{"evict", func(t *testing.T, mc *MetaCache, m *machine.Machine, i int) Op {
			overwrite(t, m, mc.cachePath(i), make([]byte, mcEntryLen), 0)
			return Op{Kind: OpUnlink, Path: mc.cachePath(i)}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mc := NewMetaCache(65, 8, 0.8)
			m := runClean(t, mc, 300)
			i := 0
			for mc.srcVer[i] == 0 || mc.cacheVer[i] < 0 {
				i++
			}
			fl := c.crash(t, mc, m, i)
			masks(t, mc, m, func(on bool) {
				mc.inFlight = Op{}
				if on {
					mc.inFlight = fl
				}
			})
		})
	}
}

func TestScanInFlightMasking(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash func(t *testing.T, sc *Scan, m *machine.Machine, seg int) Op
	}{
		{"append", func(t *testing.T, sc *Scan, m *machine.Machine, seg int) Op {
			op := Op{Kind: OpWrite, Path: sc.path(seg), Off: int64(scanHeader + sc.batches[seg]*sc.blen(seg)),
				Data: sc.batchFrame(seg, sc.gen[seg], sc.batches[seg])}
			overwrite(t, m, op.Path, op.Data[:40], op.Off)
			return op
		}},
		{"compact-unlink", func(t *testing.T, sc *Scan, m *machine.Machine, seg int) Op {
			if err := m.FS.Unlink(sc.path(seg)); err != nil {
				t.Fatal(err)
			}
			return Op{Kind: OpUnlink, Path: sc.path(seg)}
		}},
		{"compact-create", func(t *testing.T, sc *Scan, m *machine.Machine, seg int) Op {
			if err := m.FS.Unlink(sc.path(seg)); err != nil {
				t.Fatal(err)
			}
			op := Op{Kind: OpCreate, Path: sc.path(seg), Data: sc.headerFrame(seg, sc.gen[seg]+1)}
			overwrite(t, m, op.Path, op.Data, 0)
			return op
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := NewScan(67, 3, 6)
			m := runClean(t, sc, 200)
			fl := c.crash(t, sc, m, 1)
			masks(t, sc, m, func(on bool) {
				sc.inFlight = Op{}
				if on {
					sc.inFlight = fl
				}
			})
		})
	}
}
