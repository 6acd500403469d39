package machine_test

import (
	"bytes"
	"fmt"
	"testing"

	"rio/internal/disk"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
	"rio/internal/warmreboot"
)

// sameMachine reports the first difference between two machines' storage:
// every byte of memory and disk, every frame's flags, and the disk's
// bookkeeping (statistics, fault state, queue).
func sameMachine(a, b *machine.Machine) error {
	if !bytes.Equal(a.Mem.Slice(0, a.Mem.Size()), b.Mem.Slice(0, b.Mem.Size())) {
		return fmt.Errorf("memory contents differ")
	}
	for f := 0; f < a.Mem.NumFrames(); f++ {
		if *a.Mem.Frame(f) != *b.Mem.Frame(f) {
			return fmt.Errorf("frame %d flags: %+v vs %+v", f, *a.Mem.Frame(f), *b.Mem.Frame(f))
		}
	}
	if !bytes.Equal(a.Disk.Snapshot(), b.Disk.Snapshot()) {
		return fmt.Errorf("disk contents differ")
	}
	if a.Disk.Stats != b.Disk.Stats || a.Disk.FaultStats != b.Disk.FaultStats {
		return fmt.Errorf("disk stats: %+v %+v vs %+v %+v",
			a.Disk.Stats, a.Disk.FaultStats, b.Disk.Stats, b.Disk.FaultStats)
	}
	if a.Disk.LatentSectors() != b.Disk.LatentSectors() || a.Disk.FaultPlanActive() != b.Disk.FaultPlanActive() {
		return fmt.Errorf("disk fault state differs")
	}
	if a.Elapsed() != b.Elapsed() {
		return fmt.Errorf("simulated clocks differ: %v vs %v", a.Elapsed(), b.Elapsed())
	}
	return nil
}

// TestRecycledStorageBootsAFreshMachine leaves a Storage as dirty as a
// crash run can — files on disk, a fault plan with latent sectors planted,
// writes queued and one torn by the crash, memory scrambled, frame flags
// set, the dump area full of a stale image — and builds the next machine on it. That
// machine must be, byte for byte and counter for counter, the machine New
// builds; and must stay so through a workload, a crash and a warm reboot,
// whose disk access times depend on the head position and statistics a
// leaked field would carry over.
func TestRecycledStorageBootsAFreshMachine(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyUFSDelayed))
	st := new(machine.Storage)
	dirty, err := machine.NewOn(st, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		put(t, dirty, fmt.Sprintf("/junk%d", i), kernel.FillBytes(5*fs.BlockSize, uint64(i)|1))
	}
	dirty.FS.Sync()
	plan := disk.FaultPlan{Seed: 7, LatentRate: 0.5}
	dirty.Disk.SetFaultPlan(&plan)
	sector := make([]byte, disk.SectorSize)
	for s := 0; s < 64; s++ {
		dirty.Disk.Read(s*16, sector) // half of these plant a latent sector
	}
	put(t, dirty, "/queued", kernel.FillBytes(3*fs.BlockSize, 99)) // delayed writes: left in the queue
	dirty.Kernel.Panic("dirtying the storage")
	dirty.CrashFinish()
	stale := dirty.DumpArea() // a stale image: no byte of it may reach the next machine's recovery
	for i := range stale {
		stale[i] = 0xA5
	}
	dirty.Mem.Scramble(12345)
	dirty.Mem.Frame(100).WriteProtected = true
	if dirty.Disk.LatentSectors() == 0 || dirty.Disk.Stats.Writes == 0 {
		t.Fatalf("storage is not dirty enough to test anything: %d latent sectors, %+v",
			dirty.Disk.LatentSectors(), dirty.Disk.Stats)
	}

	for _, pol := range []fs.PolicyKind{fs.PolicyRio, fs.PolicyUFSWTWrite} {
		opt := machine.DefaultOptions(fs.DefaultPolicy(pol))
		opt.Seed = 42
		recycled, err := machine.NewOn(st, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := machine.New(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMachine(recycled, fresh); err != nil {
			t.Fatalf("%v: recycled machine at boot: %v", pol, err)
		}
		for _, m := range []*machine.Machine{recycled, fresh} {
			for i := 0; i < 4; i++ {
				put(t, m, fmt.Sprintf("/f%d", i), kernel.FillBytes(3*fs.BlockSize+17, uint64(i)|1))
			}
			m.Kernel.Panic("injected test crash")
			m.CrashFinish()
			if pol == fs.PolicyRio {
				if _, err := warmreboot.Warm(m); err != nil {
					t.Fatal(err)
				}
			} else if _, err := warmreboot.Cold(m, sim.Mix(42, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameMachine(recycled, fresh); err != nil {
			t.Fatalf("%v: recycled machine after crash and recovery: %v", pol, err)
		}
	}

	// A Storage serves whatever machine size comes next.
	opt.MemPages, opt.DiskBlocks = 1024, 1024
	small, err := machine.NewOn(st, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameMachine(small, fresh); err != nil {
		t.Fatalf("resized machine: %v", err)
	}
}

// TestRecycledStorageDisarmsTheCrashPoint: the crash point is the
// Storage's, so it outlives the machine a run halted with it. The next
// machine built on that Storage must start with it disarmed and its count
// zero.
func TestRecycledStorageDisarmsTheCrashPoint(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	st := new(machine.Storage)
	for run := 0; run < 2; run++ {
		m, err := machine.NewOn(st, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		cp := m.Kernel.CrashPoint
		if cp.Count() != 0 {
			t.Fatalf("run %d: the new machine's crash point has counted %d", run, cp.Count())
		}
		put(t, m, "/f", kernel.FillBytes(3*fs.BlockSize, 7))
		m.Kernel.Panic("injected test crash")
		m.CrashFinish()
		if run == 0 {
			cp.Arm(1)
			if _, err := warmreboot.Warm(m); err != kernel.ErrCrashPoint {
				t.Fatalf("armed warm reboot: err = %v, want ErrCrashPoint", err)
			}
		} else if _, err := warmreboot.Warm(m); err != nil {
			t.Fatalf("warm reboot on the recycled storage: %v", err)
		}
	}
}
