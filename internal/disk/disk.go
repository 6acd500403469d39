// Package disk implements the simulated magnetic disk the file system
// mounts on.
//
// The disk is the only storage that survives a cold boot. Its behaviour
// matters to the reproduction in three ways:
//
//   - Latency: the 1996-era cost gap between memory and disk drives every
//     row of Table 2. The model charges positioning time (seek + rotation)
//     plus transfer time, with positioning skipped for sequential access
//     (which is what makes journaling's log writes cheap).
//   - Crash semantics: a sector being written when the system crashes may
//     be torn, exactly the vulnerability window the paper concedes for
//     disks (§2.1).
//   - The interface is narrow and explicit (I/O control blocks, not store
//     instructions) — which is *why* disks rarely suffer direct corruption.
//     Only this package's methods can change disk contents.
package disk

import (
	"fmt"

	"rio/internal/sim"
)

// SectorSize is the simulated sector size in bytes.
const SectorSize = 512

// extentSize is the grain at which a disk records which of its bytes a
// store reached: 8 KB, a file-system block.
const extentSize = 8192

// The performance model: a 1996 fast-SCSI drive like those on the DEC
// 3000/600, the one machine the paper times every configuration on.
const (
	// positioning is the average seek + rotational latency charged for a
	// non-sequential access.
	positioning = 10 * sim.Millisecond
	// sequentialThreshold: an access within this many sectors after the
	// previous one counts as sequential and pays trackSwitch instead of
	// positioning.
	sequentialThreshold = 64
	// trackSwitch is the (small) cost charged for sequential access.
	trackSwitch = 1 * sim.Millisecond
	// bytesPerSecond is the media transfer rate, 5 MB/s.
	bytesPerSecond = 5 << 20
	// fixedOverhead is per-request controller/command overhead.
	fixedOverhead = 500 * sim.Microsecond
)

// ServiceTime is the simulated time the drive takes to transfer n bytes,
// sequentially (seq) or after a seek: the one formula that prices every
// disk access, the disk's own and the file system's queued writes alike.
func ServiceTime(seq bool, n int) sim.Duration {
	pos := positioning
	if seq {
		pos = trackSwitch
	}
	return fixedOverhead + pos + sim.Duration(int64(n)*int64(sim.Second)/bytesPerSecond)
}

// Stats counts disk activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	BusyTime     sim.Duration
	SeqWrites    uint64
	RandWrites   uint64
}

// Disk is a simulated disk. Contents persist until Format is called; they
// survive simulated crashes and reboots (modulo torn in-flight sectors).
type Disk struct {
	data  []byte
	Stats Stats
	last  int // last accessed sector, for sequentiality
	// written marks each extent of data that platters handed out for a
	// store since New, Recycle or the last Format; every other byte is
	// zero. Format and Recycle clear only the marked extents.
	written []bool

	// Fault injection (see fault.go). plan == nil means a perfect disk.
	plan       *FaultPlan
	faultOps   uint64       // per-disk operation index for fault decisions
	latent     map[int]bool // sectors unreadable until rewritten
	FaultStats FaultStats
}

// New returns a disk with capacity bytes (rounded down to whole sectors).
func New(capacity int) *Disk {
	n := capacity / SectorSize
	if n <= 0 {
		panic("disk: capacity smaller than one sector")
	}
	size := n * SectorSize
	return blankDisk(make([]byte, size), make([]bool, (size+extentSize-1)/extentSize))
}

// Recycle returns a new disk of d's capacity on d's storage, zeroed: no
// contents, fault plan, latent sectors or statistics carry over, so
// it is indistinguishable from New's. d must not be used again. A crash
// campaign builds each run's disk from the last one's instead of paging in
// 16 MB of fresh memory per run; only the extents the last run wrote are
// cleared.
func (d *Disk) Recycle() *Disk {
	d.erase()
	return blankDisk(d.data, d.written)
}

// blankDisk is a disk on all-zero data, no extent of it written.
func blankDisk(data []byte, written []bool) *Disk {
	return &Disk{data: data, written: written, last: -1 << 30}
}

// platters returns [off, off+n) of data for a store into it, and marks the
// extents it spans written. Every store to the platters takes its bytes
// from here.
func (d *Disk) platters(off, n int) []byte {
	for e := off / extentSize; e <= (off+n-1)/extentSize; e++ {
		d.written[e] = true
	}
	return d.data[off : off+n]
}

// erase zeroes the written extents, after which none is.
func (d *Disk) erase() {
	for e, w := range d.written {
		if w {
			clear(d.data[e*extentSize : min((e+1)*extentSize, len(d.data))])
		}
	}
	clear(d.written)
}

// NumSectors returns the disk capacity in sectors.
func (d *Disk) NumSectors() int { return len(d.data) / SectorSize }

func (d *Disk) checkRange(sector, sectors int) {
	if sector < 0 || sectors < 0 || sector+sectors > d.NumSectors() {
		panic(fmt.Sprintf("disk: access [%d,+%d) out of range (disk has %d sectors)",
			sector, sectors, d.NumSectors()))
	}
}

// AccessTime returns the simulated service time for n bytes at sector,
// without performing any I/O: what a Read or Write there would take now.
func (d *Disk) AccessTime(sector, n int) sim.Duration {
	return ServiceTime(d.sequential(sector), n)
}

// Commit applies data at sector without charging service time: it is the
// completion of an asynchronous request whose time was already accounted
// when it was queued. Under an active FaultPlan it can fail transiently
// (nothing written) or be silently misdirected to a wrong sector.
func (d *Disk) Commit(sector int, data []byte) error {
	if len(data)%SectorSize != 0 {
		panic("disk: commit length not a sector multiple")
	}
	ns := len(data) / SectorSize
	d.checkRange(sector, ns)
	target, err := d.writeFault("commit", sector, ns)
	if err != nil {
		return err
	}
	copy(d.platters(target*SectorSize, len(data)), data)
	d.clearLatent(target, ns)
	d.last = sector + ns
	d.Stats.Writes++
	d.Stats.BytesWritten += uint64(len(data))
	return nil
}

// Tear overwrites the first sector of a request with garbage — the fate of
// a write in flight at crash time.
func (d *Disk) Tear(sector int, rng *sim.Rand) {
	d.checkRange(sector, 1)
	torn := make([]byte, SectorSize)
	rng.Bytes(torn)
	copy(d.platters(sector*SectorSize, SectorSize), torn)
}

// sequential reports whether an access at sector follows the last one
// closely enough to skip positioning.
func (d *Disk) sequential(sector int) bool {
	gap := sector - d.last
	return gap >= 0 && gap <= sequentialThreshold
}

// Read copies sectors [sector, sector+len(buf)/SectorSize) into buf and
// returns the simulated service time. len(buf) must be a sector multiple.
// A non-nil error means no data was transferred; the time charged models
// the failed command (positioning happened, the transfer did not). A
// latent-sector error (IsLatent) persists until the sector is rewritten;
// a transient error (IsTransient) may clear on retry.
func (d *Disk) Read(sector int, buf []byte) (sim.Duration, error) {
	if len(buf)%SectorSize != 0 {
		panic("disk: read length not a sector multiple")
	}
	ns := len(buf) / SectorSize
	d.checkRange(sector, ns)
	t := d.AccessTime(sector, len(buf))
	d.last = sector + ns
	d.Stats.Reads++
	d.Stats.BusyTime += t
	if err := d.readFault(sector, ns); err != nil {
		return t, err
	}
	copy(buf, d.data[sector*SectorSize:])
	d.Stats.BytesRead += uint64(len(buf))
	return t, nil
}

// Write synchronously writes buf at sector and returns the service time.
// A non-nil error means nothing was written (transient failure). A
// misdirected write returns nil — the drive believes it succeeded — but
// lands the data on a wrong sector, leaving the target stale.
func (d *Disk) Write(sector int, buf []byte) (sim.Duration, error) {
	if len(buf)%SectorSize != 0 {
		panic("disk: write length not a sector multiple")
	}
	ns := len(buf) / SectorSize
	d.checkRange(sector, ns)
	seq := d.sequential(sector)
	t := ServiceTime(seq, len(buf))
	if seq {
		d.Stats.SeqWrites++
	} else {
		d.Stats.RandWrites++
	}
	d.last = sector + ns
	d.Stats.BusyTime += t
	target, err := d.writeFault("write", sector, ns)
	if err != nil {
		return t, err
	}
	copy(d.platters(target*SectorSize, len(buf)), buf)
	d.clearLatent(target, ns)
	d.Stats.Writes++
	d.Stats.BytesWritten += uint64(len(buf))
	return t, nil
}

// Format zeroes the disk. Writing every sector also heals any latent
// sector errors, as a full-surface rewrite would.
func (d *Disk) Format() {
	d.erase()
	d.last = -1 << 30
	d.latent = nil
	if d.plan != nil {
		d.latent = make(map[int]bool)
	}
}

// Snapshot returns a copy of the full disk contents (test oracles).
func (d *Disk) Snapshot() []byte {
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}

// Restore overwrites disk contents from a snapshot.
func (d *Disk) Restore(snap []byte) {
	if len(snap) != len(d.data) {
		panic("disk: snapshot size mismatch")
	}
	copy(d.platters(0, len(snap)), snap)
}
