package workload

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// MailSpool is maildir-shaped small-file churn: messages are written
// into /spool/tmp and renamed into /spool/new (the classic
// write-then-rename atomic delivery), then consumed with a read plus
// unlink. It is the canonical many-small-files metadata workload — the
// population turns over constantly, so almost all of the state is
// recently dirtied metadata, exactly the traffic the paper says lives
// (and dies) in the file cache.
//
// The contract Check enforces: a delivered message (rename acked) must
// be present and byte-exact in new/ — gone means the ack was a lie
// (Lost). A consumed message (unlink acked) must stay gone —
// reappearing means the consume rolled back (Lost, the mail gets
// re-delivered). A message visible in both tmp/ and new/ outside the
// one in-flight delivery is a rename half-applied (Torn). Frames that
// fail their checksum are Corruptions.
//
// Message frame: magic u64 | id u64 | plen u32 | payload | cksum u64
type MailSpool struct {
	// WriteThrough fsyncs each message before its delivering rename.
	WriteThrough bool
	// MaxQueue bounds the live message count; above it, consumes are
	// forced so the spool churns instead of growing.
	MaxQueue int

	seed  uint64
	rng   *sim.Rand
	next  uint64   // next message id to deliver
	live  []uint64 // delivered, unconsumed ids (deterministic order)
	dead  []uint64 // consumed ids (bounded; for resurrection checks)
	steps int

	inFlight *spoolOp

	// ReadMismatches counts online consume-side payload mismatches.
	ReadMismatches int
}

// spoolOp is the one in-flight spool operation.
type spoolOp struct {
	id    uint64
	phase int // spWrite, spRename, spUnlink
}

const (
	spWrite = iota
	spRename
	spUnlink
)

const (
	spoolMagic  = 0x52696f53706f6f6c // "RioSpool"
	spoolHeader = 8 + 8 + 4
	spoolDead   = 64 // resurrection watch-list bound
)

// NewMailSpool returns the spool workload.
func NewMailSpool(seed uint64, maxQueue int) *MailSpool {
	if maxQueue < 1 {
		maxQueue = 32
	}
	return &MailSpool{
		MaxQueue: maxQueue,
		seed:     seed,
		rng:      sim.NewRand(sim.Mix(seed, 0x5000147E)),
		next:     1,
	}
}

// Name implements Workload.
func (ms *MailSpool) Name() string { return "mailspool" }

func (ms *MailSpool) tmpPath(id uint64) string { return fmt.Sprintf("/spool/tmp/m%08d", id) }
func (ms *MailSpool) newPath(id uint64) string { return fmt.Sprintf("/spool/new/m%08d", id) }

// plen is the message-body length for id — small, maildir-shaped.
func (ms *MailSpool) plen(id uint64) int {
	return 64 + int(sim.Mix(ms.seed, id)%3072)
}

// frame builds the message image for id.
func (ms *MailSpool) frame(id uint64) []byte {
	p := kernel.FillBytes(ms.plen(id), sim.Mix(ms.seed, id, 0x3A11)|1)
	buf := make([]byte, 0, spoolHeader+len(p)+8)
	buf = binary.BigEndian.AppendUint64(buf, spoolMagic)
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
	buf = append(buf, p...)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:]))
}

// Setup creates the spool directories.
func (ms *MailSpool) Setup(fsys *fs.FS) error {
	for _, d := range []string{"/spool", "/spool/tmp", "/spool/new"} {
		if err := fsys.Mkdir(d); err != nil && err != fs.ErrExists {
			return err
		}
	}
	return nil
}

// Step delivers, consumes, or rescans.
func (ms *MailSpool) Step(fsys *fs.FS) error {
	ms.steps++
	switch r := ms.rng.Float64(); {
	case (r < 0.5 && len(ms.live) < ms.MaxQueue) || len(ms.live) == 0:
		return ms.doDeliver(fsys)
	case r < 0.9:
		return ms.doConsume(fsys)
	default:
		return ms.doRescan(fsys)
	}
}

// doDeliver writes the message into tmp/ and renames it into new/ —
// delivery is acked only after the rename returns.
func (ms *MailSpool) doDeliver(fsys *fs.FS) error {
	id := ms.next
	ms.inFlight = &spoolOp{id: id, phase: spWrite}
	f, err := fsys.Create(ms.tmpPath(id))
	if err != nil {
		return err
	}
	if _, err := f.Write(ms.frame(id)); err != nil {
		return err
	}
	if ms.WriteThrough {
		if err := fsys.Fsync(f); err != nil {
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	ms.inFlight.phase = spRename
	if err := fsys.Rename(ms.tmpPath(id), ms.newPath(id)); err != nil {
		return err
	}
	ms.next = id + 1
	ms.live = append(ms.live, id)
	ms.inFlight = nil
	return nil
}

// doConsume reads one live message (verifying the body online) and
// unlinks it.
func (ms *MailSpool) doConsume(fsys *fs.FS) error {
	if len(ms.live) == 0 {
		return ms.doDeliver(fsys)
	}
	i := ms.rng.Intn(len(ms.live))
	id := ms.live[i]
	ms.inFlight = &spoolOp{id: id, phase: spUnlink}
	f, err := fsys.Open(ms.newPath(id))
	if err != nil {
		return err
	}
	want := ms.frame(id)
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for j := range want {
		if got[j] != want[j] {
			ms.ReadMismatches++
			break
		}
	}
	if err := fsys.Unlink(ms.newPath(id)); err != nil {
		return err
	}
	ms.live = append(ms.live[:i], ms.live[i+1:]...)
	ms.dead = append(ms.dead, id)
	if len(ms.dead) > spoolDead {
		ms.dead = ms.dead[len(ms.dead)-spoolDead:]
	}
	ms.inFlight = nil
	return nil
}

// doRescan lists new/ and checks the live count online, the periodic
// queue scan every spool daemon runs.
func (ms *MailSpool) doRescan(fsys *fs.FS) error {
	ents, err := fsys.ReadDir("/spool/new")
	if err != nil {
		return err
	}
	if len(ents) != len(ms.live) {
		ms.ReadMismatches++
	}
	return nil
}

// Check implements Workload.
func (ms *MailSpool) Check(fsys *fs.FS) Verdict {
	v := Verdict{Checked: len(ms.live)}
	fl := ms.inFlight

	// Index what is actually on disk (sorted; ReadDir order is not part
	// of the oracle).
	inNew := ms.listIDs(fsys, "/spool/new")
	inTmp := ms.listIDs(fsys, "/spool/tmp")

	// Every acked-delivered, unconsumed message must be in new/ and
	// byte-exact.
	for _, id := range ms.live {
		if fl != nil && fl.id == id && fl.phase == spUnlink {
			continue // consume in flight: present or gone, both fine
		}
		if !inNew[id] {
			v.Lost++
			v.Corruptions = append(v.Corruptions, Corruption{ms.newPath(id),
				"acked delivery lost"})
			continue
		}
		if d := ms.checkFrame(fsys, ms.newPath(id), id); d != "" {
			v.Corruptions = append(v.Corruptions, Corruption{ms.newPath(id), d})
		}
	}

	// tmp/ must hold at most the one in-flight delivery; a message in
	// both tmp/ and new/ is a torn rename.
	for _, id := range sortedIDs(inTmp) {
		inFlightHere := fl != nil && fl.id == id && (fl.phase == spWrite || fl.phase == spRename)
		if inNew[id] && !inFlightHere {
			v.Torn++
			v.Corruptions = append(v.Corruptions, Corruption{ms.tmpPath(id),
				"torn delivery: message in both tmp/ and new/"})
			continue
		}
		if !inFlightHere {
			v.Corruptions = append(v.Corruptions, Corruption{ms.tmpPath(id),
				"stray tmp message (no delivery in flight)"})
		}
	}

	// Consumed messages must stay consumed.
	for _, id := range ms.dead {
		if fl != nil && fl.id == id {
			continue
		}
		if inNew[id] {
			v.Lost++
			v.Corruptions = append(v.Corruptions, Corruption{ms.newPath(id),
				"consumed message resurrected (acked unlink rolled back)"})
		}
	}

	// new/ must hold nothing beyond the oracle's live set (plus the
	// in-flight delivery or consume).
	liveSet := make(map[uint64]bool, len(ms.live))
	for _, id := range ms.live {
		liveSet[id] = true
	}
	deadSet := make(map[uint64]bool, len(ms.dead))
	for _, id := range ms.dead {
		deadSet[id] = true
	}
	for _, id := range sortedIDs(inNew) {
		if liveSet[id] || deadSet[id] {
			continue // dead handled above
		}
		if fl != nil && fl.id == id {
			continue // delivery in flight: landing early is fine
		}
		v.Corruptions = append(v.Corruptions, Corruption{ms.newPath(id),
			"unexpected message (never delivered or long consumed)"})
	}
	return v
}

// listIDs returns the message ids present under dir.
func (ms *MailSpool) listIDs(fsys *fs.FS, dir string) map[uint64]bool {
	out := map[uint64]bool{}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range ents {
		var id uint64
		if n, err := fmt.Sscanf(e.Name, "m%d", &id); n == 1 && err == nil {
			out[id] = true
		}
	}
	return out
}

// sortedIDs flattens a presence set into ascending order so conviction
// order (and hence report bytes) is deterministic.
func sortedIDs(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkFrame reads the message at path and diffs it against the
// oracle frame for id; returns a non-empty detail on mismatch.
func (ms *MailSpool) checkFrame(fsys *fs.FS, path string, id uint64) string {
	want := ms.frame(id)
	f, err := fsys.Open(path)
	if err != nil {
		return "unreadable: " + err.Error()
	}
	defer f.Close()
	st, err := fsys.Stat(path)
	if err != nil {
		return "stat failed: " + err.Error()
	}
	if st.Size != int64(len(want)) {
		return fmt.Sprintf("size %d, want %d", st.Size, len(want))
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		return "read failed: " + err.Error()
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Sprintf("byte %d: got %#x, want %#x", j, got[j], want[j])
		}
	}
	return ""
}
