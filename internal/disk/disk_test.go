package disk

import (
	"bytes"
	"testing"

	"rio/internal/sim"
)

func newDisk(sectors int) *Disk {
	return New(sectors * SectorSize)
}

func sector(b byte) []byte {
	s := make([]byte, SectorSize)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDisk(16)
	d.Write(3, sector(0xaa))
	buf := make([]byte, SectorSize)
	d.Read(3, buf)
	if !bytes.Equal(buf, sector(0xaa)) {
		t.Fatal("round trip mismatch")
	}
}

func TestMultiSectorIO(t *testing.T) {
	d := newDisk(16)
	data := append(sector(1), sector(2)...)
	d.Write(5, data)
	buf := make([]byte, 2*SectorSize)
	d.Read(5, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-sector mismatch")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDisk(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Write(3, append(sector(0), sector(0)...))
}

func TestNonSectorMultiplePanics(t *testing.T) {
	d := newDisk(4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Write(0, make([]byte, 100))
}

func TestLatencySequentialVsRandom(t *testing.T) {
	d := newDisk(1000)
	// First write: random positioning.
	t1, _ := d.Write(0, sector(0))
	// Adjacent write: sequential, cheaper.
	t2, _ := d.Write(1, sector(0))
	// Far write: random again.
	t3, _ := d.Write(900, sector(0))
	if t2 >= t1 {
		t.Fatalf("sequential (%v) not cheaper than first random (%v)", t2, t1)
	}
	if t3 <= t2 {
		t.Fatalf("random (%v) not dearer than sequential (%v)", t3, t2)
	}
	if d.Stats.SeqWrites != 1 || d.Stats.RandWrites != 2 {
		t.Fatalf("seq/rand = %d/%d", d.Stats.SeqWrites, d.Stats.RandWrites)
	}
	// Every access is priced by ServiceTime: 0.5 ms overhead, 1 ms track
	// switch or 10 ms positioning, 512 B at 5 MB/s.
	seq, far := ServiceTime(true, SectorSize), ServiceTime(false, SectorSize)
	if t1 != far || t2 != seq || t3 != far || far != 10_597_656 || seq != 1_597_656 {
		t.Fatalf("service times %v %v %v; ServiceTime seq %d far %d", t1, t2, t3, seq, far)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	d := New(1 << 20)
	small, _ := d.Write(0, sector(0))
	d.last = -1 << 30 // reset sequentiality
	big, _ := d.Write(0, make([]byte, 64*SectorSize))
	if big <= small {
		t.Fatalf("64-sector write (%v) not slower than 1-sector (%v)", big, small)
	}
}

func TestFormat(t *testing.T) {
	d := newDisk(4)
	d.Write(0, sector(9))
	d.Format()
	buf := make([]byte, SectorSize)
	d.Read(0, buf)
	if !bytes.Equal(buf, sector(0)) {
		t.Fatal("Format did not zero disk")
	}
}

// TestFormatZeroesAfterEveryKindOfStore: Format may skip its clear only on
// a disk nothing has stored to since New, Recycle or the last Format. Each
// way a byte can reach the platters — Write, Commit, a torn sector,
// Restore — must make the next Format zero the disk; and a blank disk must
// stay blank through Formats and reads.
func TestFormatZeroesAfterEveryKindOfStore(t *testing.T) {
	blank := make([]byte, 8*SectorSize)
	full := bytes.Repeat([]byte{7}, len(blank))
	stores := map[string]func(d *Disk){
		"Write":   func(d *Disk) { d.Write(3, sector(1)) },
		"Commit":  func(d *Disk) { d.Commit(3, sector(2)) },
		"Tear":    func(d *Disk) { d.Tear(3, sim.NewRand(1)) },
		"Restore": func(d *Disk) { d.Restore(full) },
	}
	for name, store := range stores {
		for _, d := range []*Disk{newDisk(8), newDisk(8).Recycle()} {
			d.Format() // blank before, blank after: nothing to clear
			d.Read(0, make([]byte, SectorSize))
			store(d)
			if bytes.Equal(d.Snapshot(), blank) {
				t.Fatalf("%s stored nothing", name)
			}
			d.Format()
			if !bytes.Equal(d.Snapshot(), blank) {
				t.Fatalf("Format after %s left data on the disk", name)
			}
		}
	}
}

// TestRecycleIsNew: a recycled disk keeps nothing of the disk it was made
// from but the capacity.
func TestRecycleIsNew(t *testing.T) {
	old := newDisk(8)
	plan := FaultPlan{Seed: 3, LatentRate: 1}
	old.SetFaultPlan(&plan)
	old.Read(2, make([]byte, SectorSize)) // plants a latent sector
	old.Write(5, sector(0xee))
	if old.LatentSectors() == 0 || old.FaultStats.Total() == 0 {
		t.Fatal("old disk has no fault state to lose")
	}

	d, fresh := old.Recycle(), New(8*SectorSize)
	if !bytes.Equal(d.Snapshot(), fresh.Snapshot()) {
		t.Fatal("recycled disk is not blank")
	}
	if d.Stats != fresh.Stats || d.FaultStats != fresh.FaultStats ||
		d.LatentSectors() != 0 || d.FaultPlanActive() {
		t.Fatalf("recycled disk carries state over: %+v %+v latent=%d plan=%v",
			d.Stats, d.FaultStats, d.LatentSectors(), d.FaultPlanActive())
	}
	// The head position is fresh too: the first access pays what it pays
	// on a new disk.
	if got, want := d.AccessTime(6, SectorSize), fresh.AccessTime(6, SectorSize); got != want {
		t.Fatalf("first access on a recycled disk takes %v, on a new one %v", got, want)
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := newDisk(4)
	d.Write(2, sector(0x5c))
	snap := d.Snapshot()
	d.Write(2, sector(0))
	d.Restore(snap)
	buf := make([]byte, SectorSize)
	d.Read(2, buf)
	if !bytes.Equal(buf, sector(0x5c)) {
		t.Fatal("restore mismatch")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDisk(8)
	d.Write(0, sector(1))
	d.Read(0, make([]byte, SectorSize))
	s := d.Stats
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesWritten != SectorSize || s.BytesRead != SectorSize {
		t.Fatalf("byte stats %+v", s)
	}
	if s.BusyTime <= 0 {
		t.Fatal("no busy time")
	}
}

func TestBadConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { New(SectorSize - 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}
