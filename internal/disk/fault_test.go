package disk

import (
	"bytes"
	"reflect"
	"testing"
)

// hotPlan has rates high enough that a few hundred ops see every fault
// kind, with no MaxFaults cap.
func hotPlan(seed uint64) *FaultPlan {
	return &FaultPlan{
		Seed:           seed,
		TransientRead:  0.2,
		TransientWrite: 0.2,
		LatentRate:     0.1,
		MisdirectRate:  0.1,
	}
}

func TestNilPlanPerfectDisk(t *testing.T) {
	d := newDisk(64)
	for i := 0; i < 64; i++ {
		if _, err := d.Write(i, sector(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	buf := make([]byte, SectorSize)
	for i := 0; i < 64; i++ {
		if _, err := d.Read(i, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("sector %d corrupted without a fault plan", i)
		}
	}
	if d.FaultStats.Total() != 0 {
		t.Fatalf("faults injected with nil plan: %+v", d.FaultStats)
	}
}

// TestFaultPlanDeterministic runs the same op sequence on two disks with
// the same plan and requires identical errors, stats, and final contents.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() (*Disk, []string) {
		d := newDisk(128)
		p := hotPlan(77)
		d.SetFaultPlan(p)
		var errs []string
		buf := make([]byte, SectorSize)
		for i := 0; i < 300; i++ {
			s := (i * 13) % 120
			var err error
			if i%2 == 0 {
				_, err = d.Write(s, sector(byte(i)))
			} else {
				_, err = d.Read(s, buf)
			}
			if err != nil {
				errs = append(errs, err.Error())
			}
		}
		return d, errs
	}
	d1, e1 := run()
	d2, e2 := run()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("error sequences differ:\n%v\n%v", e1, e2)
	}
	if len(e1) == 0 {
		t.Fatal("hot plan injected nothing in 300 ops")
	}
	if d1.FaultStats != d2.FaultStats {
		t.Fatalf("stats differ: %+v vs %+v", d1.FaultStats, d2.FaultStats)
	}
	if !bytes.Equal(d1.Snapshot(), d2.Snapshot()) {
		t.Fatal("disk contents differ after identical faulty runs")
	}
}

func TestLatentSectorPersistsUntilRewrite(t *testing.T) {
	d := newDisk(64)
	d.SetFaultPlan(&FaultPlan{Seed: 1, LatentRate: 1}) // every read plants one
	buf := make([]byte, SectorSize)
	if _, err := d.Read(5, buf); !IsLatent(err) {
		t.Fatalf("expected latent error, got %v", err)
	}
	// Retrying the read is futile: latent persists, even after the plan
	// is removed (the medium does not heal).
	d.SetFaultPlan(nil)
	if _, err := d.Read(5, buf); !IsLatent(err) {
		t.Fatalf("latent sector healed without rewrite: %v", err)
	}
	if d.LatentSectors() != 1 {
		t.Fatalf("LatentSectors = %d", d.LatentSectors())
	}
	// A rewrite remaps the sector and the read succeeds.
	if _, err := d.Write(5, sector(0x42)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := d.Read(5, buf); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	if buf[0] != 0x42 {
		t.Fatal("rewritten data not readable")
	}
	if d.LatentSectors() != 0 || d.FaultStats.Cleared != 1 {
		t.Fatalf("latent not cleared: %d sectors, stats %+v", d.LatentSectors(), d.FaultStats)
	}
}

func TestTransientErrorClearsOnRetry(t *testing.T) {
	d := newDisk(64)
	// Transient-only plan at 50%: within a few retries one succeeds, and
	// the successes/failures are deterministic per op index.
	d.SetFaultPlan(&FaultPlan{Seed: 3, TransientWrite: 0.5})
	wrote := false
	for i := 0; i < 20; i++ {
		_, err := d.Write(9, sector(0x9a))
		if err == nil {
			wrote = true
			break
		}
		if !IsTransient(err) {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	if !wrote {
		t.Fatal("20 retries all failed at 50% transient rate (seed-dependent; pick another seed)")
	}
	buf := make([]byte, SectorSize)
	d.SetFaultPlan(nil)
	if _, err := d.Read(9, buf); err != nil || buf[0] != 0x9a {
		t.Fatalf("retried write not durable: err=%v buf[0]=%#x", err, buf[0])
	}
}

func TestMisdirectedWriteCorruptsSilently(t *testing.T) {
	d := newDisk(64)
	for i := 0; i < 64; i++ {
		d.Write(i, sector(0xee))
	}
	d.SetFaultPlan(&FaultPlan{Seed: 11, MisdirectRate: 1})
	if _, err := d.Write(10, sector(0x77)); err != nil {
		t.Fatalf("misdirected write reported failure: %v", err)
	}
	if d.FaultStats.Misdirects != 1 {
		t.Fatalf("misdirects = %d", d.FaultStats.Misdirects)
	}
	d.SetFaultPlan(nil)
	buf := make([]byte, SectorSize)
	d.Read(10, buf)
	if buf[0] == 0x77 {
		t.Fatal("target sector received the data despite misdirect")
	}
	// The payload landed somewhere else on the disk.
	found := false
	for i := 0; i < 64; i++ {
		d.Read(i, buf)
		if buf[0] == 0x77 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("misdirected payload vanished entirely")
	}
}

func TestMaxFaultsBound(t *testing.T) {
	d := newDisk(64)
	d.SetFaultPlan(&FaultPlan{Seed: 5, TransientWrite: 1, MaxFaults: 3})
	fails := 0
	for i := 0; i < 50; i++ {
		if _, err := d.Write(i%60, sector(1)); err != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("MaxFaults=3 but %d faults injected", fails)
	}
}

func TestCommitFaultsAndServiceRetry(t *testing.T) {
	d := newDisk(64)
	d.SetFaultPlan(&FaultPlan{Seed: 21, TransientWrite: 0.5})
	// Commit can fail transiently and report it.
	sawErr := false
	for i := 0; i < 30; i++ {
		if err := d.Commit(4, sector(byte(i))); err != nil {
			if !IsTransient(err) {
				t.Fatalf("commit error kind: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no commit faults at 50% rate in 30 ops")
	}

	// A failed commit wrote nothing, so retrying it until it succeeds —
	// what the file system's write queue does through ioretry — lands it.
	for i, b := range []byte{0xa1, 0xa2, 0xa3} {
		for tries := 0; d.Commit(i+1, sector(b)) != nil; tries++ {
			if tries > 100 {
				t.Fatalf("commit to sector %d never landed", i+1)
			}
		}
	}
	d.SetFaultPlan(nil)
	buf := make([]byte, SectorSize)
	for i, want := range []byte{0xa1, 0xa2, 0xa3} {
		d.Read(i+1, buf)
		if buf[0] != want {
			t.Fatalf("sector %d = %#x, want %#x", i+1, buf[0], want)
		}
	}
}
