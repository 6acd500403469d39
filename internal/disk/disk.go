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

// Params configures the disk performance model. The defaults approximate a
// 1996 fast-SCSI drive like those on the DEC 3000/600.
type Params struct {
	// Positioning is the average seek + rotational latency charged for a
	// non-sequential access.
	Positioning sim.Duration
	// SequentialThreshold: an access within this many sectors after the
	// previous one counts as sequential and pays TrackSwitch instead of
	// Positioning.
	SequentialThreshold int
	// TrackSwitch is the (small) cost charged for sequential access.
	TrackSwitch sim.Duration
	// BytesPerSecond is the media transfer rate.
	BytesPerSecond int64
	// FixedOverhead is per-request controller/command overhead.
	FixedOverhead sim.Duration
}

// DefaultParams returns the 1996-era default model.
func DefaultParams() Params {
	return Params{
		Positioning:         10 * sim.Millisecond,
		SequentialThreshold: 64,
		TrackSwitch:         1 * sim.Millisecond,
		BytesPerSecond:      5 << 20, // 5 MB/s
		FixedOverhead:       500 * sim.Microsecond,
	}
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

// Request is a queued asynchronous write.
type Request struct {
	Sector int
	Data   []byte // len multiple of SectorSize
	Done   func() // optional completion callback
}

// Disk is a simulated disk. Contents persist until Format is called; they
// survive simulated crashes and reboots (modulo torn in-flight sectors).
type Disk struct {
	params  Params
	data    []byte
	Stats   Stats
	last    int // last accessed sector, for sequentiality
	queue   []Request
	started bool // head of queue is mid-transfer (tearable on crash)
	// blank means every byte of data is known to be zero: set by New,
	// Recycle and Format, dropped by anything that stores to the platters.
	// It saves the first Format of a disk from zeroing 16 MB twice.
	blank bool

	// Fault injection (see fault.go). plan == nil means a perfect disk.
	plan       *FaultPlan
	faultOps   uint64       // per-disk operation index for fault decisions
	latent     map[int]bool // sectors unreadable until rewritten
	FaultStats FaultStats
}

// New returns a disk with capacity bytes (rounded down to whole sectors),
// using params for the latency model.
func New(capacity int, params Params) *Disk {
	n := capacity / SectorSize
	if n <= 0 {
		panic("disk: capacity smaller than one sector")
	}
	return blankDisk(make([]byte, n*SectorSize), params)
}

// Recycle returns a new disk of d's capacity on d's storage, zeroed: no
// contents, queue, fault plan, latent sectors or statistics carry over, so
// it is indistinguishable from New's. d must not be used again. A crash
// campaign builds each run's disk from the last one's instead of paging in
// 16 MB of fresh memory per run.
func (d *Disk) Recycle(params Params) *Disk {
	clear(d.data)
	return blankDisk(d.data, params)
}

// blankDisk is a disk on all-zero data.
func blankDisk(data []byte, params Params) *Disk {
	if params.BytesPerSecond <= 0 {
		panic("disk: non-positive transfer rate")
	}
	return &Disk{params: params, data: data, last: -1 << 30, blank: true}
}

// platters returns data for a store into it.
func (d *Disk) platters() []byte {
	d.blank = false
	return d.data
}

// NumSectors returns the disk capacity in sectors.
func (d *Disk) NumSectors() int { return len(d.data) / SectorSize }

// Params returns the latency model in use.
func (d *Disk) Params() Params { return d.params }

func (d *Disk) checkRange(sector, sectors int) {
	if sector < 0 || sectors < 0 || sector+sectors > d.NumSectors() {
		panic(fmt.Sprintf("disk: access [%d,+%d) out of range (disk has %d sectors)",
			sector, sectors, d.NumSectors()))
	}
}

// AccessTime returns the simulated service time for n bytes at sector,
// without performing any I/O. Higher layers use it to model asynchronous
// queues whose content is applied later via Commit.
func (d *Disk) AccessTime(sector, n int) sim.Duration {
	return d.accessTime(sector, n)
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
	copy(d.platters()[target*SectorSize:], data)
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
	copy(d.platters()[sector*SectorSize:], torn)
}

// accessTime returns the simulated service time for n bytes at sector.
func (d *Disk) accessTime(sector, n int) sim.Duration {
	t := d.params.FixedOverhead
	gap := sector - d.last
	if gap >= 0 && gap <= d.params.SequentialThreshold {
		t += d.params.TrackSwitch
	} else {
		t += d.params.Positioning
	}
	t += sim.Duration(int64(n) * int64(sim.Second) / d.params.BytesPerSecond)
	return t
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
	t := d.accessTime(sector, len(buf))
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
	t := d.accessTime(sector, len(buf))
	gap := sector - d.last
	if gap >= 0 && gap <= d.params.SequentialThreshold {
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
	copy(d.platters()[target*SectorSize:], buf)
	d.clearLatent(target, ns)
	d.Stats.Writes++
	d.Stats.BytesWritten += uint64(len(buf))
	return t, nil
}

// Enqueue adds an asynchronous write to the device queue. The data slice is
// copied. Call Service to retire queued writes; a crash with a non-empty
// queue loses the queue and may tear the in-flight sector.
func (d *Disk) Enqueue(req Request) {
	if len(req.Data)%SectorSize != 0 {
		panic("disk: queued write length not a sector multiple")
	}
	d.checkRange(req.Sector, len(req.Data)/SectorSize)
	cp := make([]byte, len(req.Data))
	copy(cp, req.Data)
	req.Data = cp
	d.queue = append(d.queue, req)
	d.started = d.started || len(d.queue) == 1
}

// QueueLen returns the number of writes still queued.
func (d *Disk) QueueLen() int { return len(d.queue) }

// Service retires up to max queued writes (all of them if max < 0),
// returning the total simulated service time. The file-system layer decides
// when the queue drains (idle time, sync, update daemon). On a write
// failure the failed request stays at the head of the queue — a later
// Service call retries it — and the error is returned with the time spent
// so far.
func (d *Disk) Service(max int) (sim.Duration, error) {
	var total sim.Duration
	for len(d.queue) > 0 && max != 0 {
		req := d.queue[0]
		t, err := d.Write(req.Sector, req.Data)
		total += t
		if err != nil {
			d.started = true
			return total, err
		}
		d.queue = d.queue[1:]
		if req.Done != nil {
			req.Done()
		}
		if max > 0 {
			max--
		}
	}
	d.started = len(d.queue) > 0
	return total, nil
}

// Crash models a system crash: all queued writes are lost, and if a write
// was in flight its first sector is torn (overwritten with garbage), the
// same vulnerability window a real disk has.
func (d *Disk) Crash(rng *sim.Rand) {
	if d.started && len(d.queue) > 0 {
		d.Tear(d.queue[0].Sector, rng)
	}
	d.queue = nil
	d.started = false
}

// Format zeroes the disk and clears the queue. Writing every sector also
// heals any latent sector errors, as a full-surface rewrite would.
func (d *Disk) Format() {
	if !d.blank {
		clear(d.data)
		d.blank = true
	}
	d.queue = nil
	d.started = false
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
	copy(d.platters(), snap)
}
