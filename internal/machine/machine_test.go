package machine_test

import (
	"bytes"
	"testing"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/machine"
	"rio/internal/sim"
	"rio/internal/warmreboot"
	"rio/internal/workload"
)

func rioMachine(t *testing.T) *machine.Machine {
	t.Helper()
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyRio))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func put(t *testing.T, m *machine.Machine, path string, data []byte) {
	t.Helper()
	f, err := m.FS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, m *machine.Machine, path string) []byte {
	t.Helper()
	buf, err := m.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestMemoryBoardTransplant(t *testing.T) {
	// Paper §5: "If the system board fails, it should be possible to move
	// the memory board to a different system without losing power or
	// data." The memory (and disk) move to a brand-new machine, which
	// warm-reboots and finds the file cache.
	donor := rioMachine(t)
	data := kernel.FillBytes(3*fs.BlockSize, 31)
	donor.FS.Mkdir("/dir")
	put(t, donor, "/dir/payload", data)
	donor.Kernel.Panic("system board failure")
	donor.CrashFinish()

	// Build the recipient chassis around the transplanted boards.
	recipient := &machine.Machine{
		Opt:  donor.Opt,
		Mem:  donor.Mem,  // the memory board, contents intact
		Disk: donor.Disk, // the disk moves too
		Rng:  sim.NewRand(99),
	}
	// The recipient's registry must land at the same frames; Boot's
	// deterministic allocation guarantees it, and Warm() uses the old
	// machine's registry location anyway. Use warmreboot on the
	// recipient directly.
	recipient.Reg = donor.Reg // fixed well-known registry location
	recipient.Text = donor.Text
	recipient.MMU = donor.MMU
	recipient.Kernel = donor.Kernel
	recipient.Clock = donor.Clock
	recipient.FS = donor.FS
	rep, err := warmreboot.Warm(recipient)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataRestored == 0 {
		t.Fatalf("transplant restored nothing: %v", rep)
	}
	if !bytes.Equal(get(t, recipient, "/dir/payload"), data) {
		t.Fatal("data lost in memory-board transplant")
	}
}

func TestRioIdleWriteback(t *testing.T) {
	// Paper §2.3: "Less extreme approaches such as writing to disk during
	// idle periods may improve system responsiveness." Rio with an update
	// period trickles dirty buffers to disk without changing reliability
	// semantics: sync stays a no-op, and after a crash warm reboot has
	// less to restore.
	pol := fs.DefaultPolicy(fs.PolicyRio)
	pol.UpdatePeriod = 10 * sim.Second
	opt := machine.DefaultOptions(pol)
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := kernel.FillBytes(2*fs.BlockSize, 17)
	put(t, m, "/f", data)

	// Idle time passes; the daemon flushes in the background, and the
	// writes complete (buffers are only marked clean at completion — a
	// crash mid-queue must leave them dirty for warm reboot).
	m.Clock.Advance(11 * sim.Second)
	m.FS.Tick()
	if m.FS.Stats.DaemonRuns == 0 {
		t.Fatal("idle writeback daemon never ran")
	}
	m.Clock.Advance(2 * sim.Second) // queue drains
	m.FS.CrashIO(m.Rng)             // settle completions deterministically

	// Crash + warm reboot: fewer dirty buffers to restore, data intact.
	m.Kernel.Panic("crash after idle flush")
	m.CrashFinish()
	rep, err := warmreboot.Warm(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataRestored != 0 {
		t.Fatalf("idle-flushed data still needed restoring: %v", rep)
	}
	if !bytes.Equal(get(t, m, "/f"), data) {
		t.Fatal("data lost with idle writeback")
	}
}

func TestCrashRecoveryPropertyAllPolicies(t *testing.T) {
	// Property: for Rio, after a crash at ANY point in a random workload,
	// warm reboot recovers a state the oracle accepts. For the
	// write-through system, cold reboot does the same.
	for _, seed := range []uint64{3, 5, 8, 13} {
		for _, rioSys := range []bool{true, false} {
			var pol fs.Policy
			if rioSys {
				pol = fs.DefaultPolicy(fs.PolicyRio)
			} else {
				pol = fs.DefaultPolicy(fs.PolicyUFSWTWrite)
			}
			opt := machine.DefaultOptions(pol)
			opt.FastPath = true
			opt.Seed = seed
			m, err := machine.New(opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			mt := workload.NewMemTest(seed, 1<<20)
			mt.WriteThrough = !rioSys
			steps := 20 + int(seed*13%100)
			for i := 0; i < steps; i++ {
				if err := mt.Step(m.FS); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, i, err)
				}
			}
			m.Kernel.Panic("random crash point")
			m.CrashFinish()
			if rioSys {
				if _, err := warmreboot.Warm(m); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := warmreboot.Cold(m, seed); err != nil {
					t.Fatal(err)
				}
			}
			if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
				t.Fatalf("seed %d rio=%v: corruption without faults: %v", seed, rioSys, bad)
			}
		}
	}
}

func TestRepeatedCrashRebootCycles(t *testing.T) {
	// Rio survives crash after crash; each reboot finds the union of all
	// previous writes.
	m := rioMachine(t)
	mt := workload.NewMemTest(21, 1<<20)
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < 25; i++ {
			if err := mt.Step(m.FS); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		m.Kernel.Panic("cycle crash")
		m.CrashFinish()
		if _, err := warmreboot.Warm(m); err != nil {
			t.Fatal(err)
		}
		if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
			t.Fatalf("cycle %d: %v", cycle, bad)
		}
	}
}

func TestCrashFinishWithoutCrashPanics(t *testing.T) {
	m := rioMachine(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.CrashFinish()
}

func TestMachineString(t *testing.T) {
	m := rioMachine(t)
	if m.String() == "" {
		t.Fatal("empty description")
	}
}

func TestAdvFSGetsJournalAutomatically(t *testing.T) {
	opt := machine.DefaultOptions(fs.DefaultPolicy(fs.PolicyAdvFS))
	opt.FastPath = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.FS.SB.JournalStart >= m.FS.SB.NBlocks {
		t.Fatal("AdvFS machine has no journal region")
	}
}

func TestCodePatchingMachineStillProtects(t *testing.T) {
	pol := fs.DefaultPolicy(fs.PolicyRio)
	opt := machine.DefaultOptions(pol)
	opt.FastPath = true
	opt.CodePatching = true
	m, err := machine.New(opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	put(t, m, "/f", []byte("guarded"))
	// A wild KSEG store into a protected frame must still trap.
	frames := m.Kernel.FramesOf(kernel.FrameUBC)
	if len(frames) == 0 {
		t.Fatal("no UBC frames")
	}
	if !m.MMU.CodePatching || m.MMU.MapAllThroughTLB {
		t.Fatal("wrong protection mode")
	}
}

func TestUPSPowerFailureRecovery(t *testing.T) {
	// Paper §1: a UPS keeps the machine up long enough to dump memory to
	// disk on a power outage; the dump plus the ordinary warm-reboot
	// restore makes Rio survive power loss too.
	m := rioMachine(t)
	if err := m.AttachSwap(); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachSwap(); err == nil {
		t.Fatal("double attach allowed")
	}
	data := kernel.FillBytes(3*fs.BlockSize, 71)
	m.FS.Mkdir("/d")
	put(t, m, "/d/f", data)

	dumpTime, err := m.PowerFail(404)
	if err != nil {
		t.Fatal(err)
	}
	if dumpTime <= 0 {
		t.Fatal("UPS dump took no time")
	}
	// The battery must only bridge a sequential dump: well under a
	// minute for this machine.
	if dumpTime > 60*sim.Second {
		t.Fatalf("dump time %v implausible", dumpTime)
	}

	// Memory really is gone.
	dump, err := m.ReadSwapDump()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dump[:4096], m.Mem.Dump()[:4096]) {
		t.Fatal("memory not scrambled by power loss")
	}

	rep, err := warmreboot.FromDump(m, dump)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataRestored == 0 {
		t.Fatalf("nothing restored from swap dump: %v", rep)
	}
	if !bytes.Equal(get(t, m, "/d/f"), data) {
		t.Fatal("data lost through power failure")
	}
}

func TestPowerFailureWithoutUPSLosesMemory(t *testing.T) {
	m := rioMachine(t)
	put(t, m, "/gone", []byte("no ups"))
	if _, err := m.PowerFail(5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadSwapDump(); err == nil {
		t.Fatal("phantom swap dump")
	}
	if _, err := warmreboot.Cold(m, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.Open("/gone"); err != fs.ErrNotFound {
		t.Fatalf("file survived power loss without UPS: %v", err)
	}
}
