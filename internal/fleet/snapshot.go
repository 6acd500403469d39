package fleet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"rio/internal/fs"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/wire"
)

// Snapshots are how a replica joins from nothing: a machine revived
// after a kill has no memory, and a replica whose gap outruns the tail
// window cannot be replayed forward. The snapshot is a deterministic
// walk of the source tree — sorted DFS, fleet metadata excluded — with
// the (epoch, seq) it captures in the header, so the installer knows
// exactly which tail frames come after it.
//
// Layout: magic u32 | epoch u64 | seq u64 | nrec u32 |
//
//	nrec×(kind u8, path str16, data u32+bytes) | fnv64
const snapMagic uint32 = 0x52534E31 // "RSN1"

const (
	snapDir  = 0
	snapFile = 1
)

// buildSnapshot serializes r's tree. Caller holds r.mu.
func buildSnapshot(r *replica) ([]byte, error) {
	buf := binary.BigEndian.AppendUint32(nil, snapMagic)
	buf = binary.BigEndian.AppendUint64(buf, r.epoch)
	buf = binary.BigEndian.AppendUint64(buf, r.seq)
	nrecAt := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	nrec := uint32(0)

	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := r.sys.ReadDir(dir)
		if err != nil {
			return err
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			p := dir + "/" + e.Name
			if dir == "/" {
				p = "/" + e.Name
			}
			if p == fleetDir {
				continue
			}
			if e.IsDir {
				buf = append(buf, snapDir)
				buf = appendStr(buf, p)
				buf = binary.BigEndian.AppendUint32(buf, 0)
				nrec++
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			data, err := r.sys.ReadFile(p)
			if err != nil {
				return err
			}
			buf = append(buf, snapFile)
			buf = appendStr(buf, p)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
			buf = append(buf, data...)
			nrec++
		}
		return nil
	}
	if err := walk("/"); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[nrecAt:], nrec)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf)), nil
}

// serveSnapshot returns one chunk of the replica's snapshot:
// Data = snapshot[Offset : Offset+MaxData], Size = total bytes. The
// blob is rebuilt per call; the trailing checksum is what lets a puller
// detect that writes landed between its chunks (the reassembled blob
// fails verification) and start over.
func (n *Node) serveSnapshot(req *wire.Request) *wire.Response {
	r := n.replicaFor(int(req.Shard))
	if r == nil {
		return &wire.Response{ID: req.ID, Status: wire.StatusNotFound,
			Msg: fmt.Sprintf("node %s holds no replica of shard %d", n.cfg.ID, req.Shard)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return &wire.Response{ID: req.ID, Status: wire.StatusAgain,
			Msg: fmt.Sprintf("shard %d down (awaiting warmboot)", r.shard)}
	}
	snap, err := buildSnapshot(r)
	if err != nil {
		return &wire.Response{ID: req.ID, Status: wire.StatusIO, Msg: "snapshot: " + err.Error()}
	}
	off := req.Offset
	if off < 0 || off > int64(len(snap)) {
		return &wire.Response{ID: req.ID, Status: wire.StatusInvalid,
			Msg: fmt.Sprintf("snapshot offset %d out of range [0,%d]", off, len(snap))}
	}
	end := off + wire.MaxData
	if end > int64(len(snap)) {
		end = int64(len(snap))
	}
	n.count(func(m *NodeMetrics) { m.SnapshotsSent++ })
	return &wire.Response{ID: req.ID, Status: wire.StatusOK,
		Size: int64(len(snap)), Data: snap[off:end]}
}

// snapHeader peeks a snapshot's (epoch, seq) without a full decode.
func snapHeader(blob []byte) (epoch, seq uint64, err error) {
	if len(blob) < 24 {
		return 0, 0, fmt.Errorf("fleet: snapshot truncated (%d bytes)", len(blob))
	}
	if m := binary.BigEndian.Uint32(blob); m != snapMagic {
		return 0, 0, fmt.Errorf("fleet: bad snapshot magic %#x", m)
	}
	return binary.BigEndian.Uint64(blob[4:]), binary.BigEndian.Uint64(blob[12:]), nil
}

// InstallSnapshot replaces (or creates) the node's replica of shard
// from blob, as a backup at the snapshot's (epoch, seq). The replica
// gets a fresh machine — an installing node either lost its memory or
// diverged, and either way the snapshot is the whole truth.
func (n *Node) InstallSnapshot(shard int, blob []byte) error {
	if len(blob) < 24+8 {
		return fmt.Errorf("fleet: snapshot truncated (%d bytes)", len(blob))
	}
	body, sum := blob[:len(blob)-8], binary.BigEndian.Uint64(blob[len(blob)-8:])
	if sim.FNV1a64(body) != sum {
		return fmt.Errorf("fleet: snapshot checksum mismatch")
	}
	epoch, seq, err := snapHeader(blob)
	if err != nil {
		return err
	}
	sys, err := n.newSystem(shard)
	if err != nil {
		return err
	}
	nrec := binary.BigEndian.Uint32(body[20:])
	c := wire.Cursor{Buf: body, Off: 24}
	for i := uint32(0); i < nrec; i++ {
		kind := c.U8()
		path := c.Str16(maxStr)
		//riolint:wirebounds a record is a whole file with no protocol maximum of its own; Take bounds it by the checksummed blob's remaining bytes, themselves ≤ wire.MaxData
		data := c.Take(int(c.U32()))
		if c.Err != nil {
			return fmt.Errorf("fleet: snapshot record %d: %w", i, c.Err)
		}
		switch kind {
		case snapDir:
			if err := server.MkdirAll(sys, path); err != nil {
				return fmt.Errorf("fleet: snapshot mkdir %s: %w", path, err)
			}
		case snapFile:
			err := server.MkdirAll(sys, fs.ParentDir(path))
			if err == nil {
				err = sys.WriteFile(path, data)
			}
			if err != nil {
				return fmt.Errorf("fleet: snapshot write %s: %w", path, err)
			}
		default:
			return fmt.Errorf("fleet: snapshot record %d has kind %d", i, kind)
		}
	}
	if err := c.Finish(); err != nil {
		return fmt.Errorf("fleet: snapshot records: %w", err)
	}
	r := &replica{shard: shard, sys: sys, role: RoleBackup, epoch: epoch, seq: seq,
		suspect: make(map[string]bool)}
	if err := r.persistSeq(); err != nil {
		return err
	}
	n.mu.Lock()
	n.reps[shard] = r
	n.mu.Unlock()
	return nil
}
