package machine

import (
	"fmt"

	"rio/internal/disk"
	"rio/internal/sim"
)

// The paper's §1 dismisses power outages in one sentence: "A $119
// uninterruptible power supply can keep a system running long enough to
// dump memory to disk in the event of a power outage." This file is that
// sentence, executable: a swap disk, a UPS-triggered dump, and recovery
// that reuses the ordinary warm-reboot restore on the saved image.

// AttachSwap adds a swap disk large enough to hold a full memory dump.
// Returns an error if one is already attached.
func (m *Machine) AttachSwap() error {
	if m.Swap != nil {
		return fmt.Errorf("machine: swap disk already attached")
	}
	m.Swap = disk.New(m.Mem.Size())
	return nil
}

// PowerFail simulates a power outage. With a swap disk attached, the UPS
// holds the machine up while it dumps all of physical memory to swap (the
// returned duration is the dump's disk time — what the UPS battery must
// cover); then power is lost and memory contents are destroyed. Without a
// swap disk, memory is simply lost.
//
// The dump is sequential, so even a 1996 disk absorbs it at full media
// rate: 128 MB at 5 MB/s is under 30 seconds of battery.
func (m *Machine) PowerFail(scrambleSeed uint64) (sim.Duration, error) {
	var dumpTime sim.Duration
	if m.Swap != nil {
		dump := m.Mem.Dump()
		// One big sequential write, sector by sector for the latency
		// model; contents via Commit.
		dumpTime = m.Swap.AccessTime(0, len(dump))
		m.Swap.Commit(0, dump)
	}
	// Power is gone: the disk queue dies with the machine...
	if m.Kernel.Crashed() == nil {
		m.Kernel.Panic("power failure")
	}
	m.FS.CrashIO(m.Rng)
	// ...and then so does memory.
	m.Mem.Scramble(scrambleSeed)
	return dumpTime, nil
}

// ReadSwapDump reads back the memory image the UPS saved.
func (m *Machine) ReadSwapDump() ([]byte, error) {
	if m.Swap == nil {
		return nil, fmt.Errorf("machine: no swap disk attached")
	}
	dump := make([]byte, m.Mem.Size())
	m.Swap.Read(0, dump)
	return dump, nil
}
