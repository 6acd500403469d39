// Package fleet extends Rio's durability story from OS crashes to
// machine loss. The paper's warm reboot recovers every acked write
// when the operating system goes down, because the file cache's memory
// survives the reboot; when the *machine* goes down — power loss,
// hardware failure — that memory is gone. The fleet answers with the
// classic systems move: keep each shard's protected cache alive on R
// machines, acknowledge a write only after every active peer holds it,
// and promote a backup when the primary's machine is lost.
//
// The layer is built from the same parts as the single-node server:
// each replica is one rio.System (single-threaded, one lock per
// replica), ops are executed through server.Exec on primary and backup
// alike — the same function over the same op sequence is what makes a
// backup's tree byte-equal to its primary's — and replication rides the
// riod wire protocol (OpReplBatch frames inside Request.Data), so a
// backup on another process or another machine is the same code path as
// a backup in the next goroutine.
package fleet

import (
	"encoding/binary"
	"fmt"

	"rio/internal/sim"
	"rio/internal/wire"
)

// Replication frame layout, carried in wire.Request.Data of an
// OpReplBatch:
//
//	magic u32 | epoch u64 | seq u64 | nops u32 | nops×(u32 len, op bytes) | fnv64
//
// nops is 0 (a fence) or 1. The op is one wire.AppendRequest encoding —
// the exact request the primary executed, with append offsets already
// resolved to absolute so the backup's execution cannot diverge. The
// trailing FNV-1a 64 covers everything before it: replication crosses
// machines, and a frame that arrives damaged must be refused, not applied.
const frameMagic uint32 = 0x52464C31 // "RFL1"

// Batch is one replication unit: the op a primary executed under one
// sequence number, or none — a fence probe, which carries only (epoch,
// seq): a backup applies nothing and just answers the epoch check.
type Batch struct {
	Epoch uint64
	Seq   uint64
	Op    *wire.Request // nil: a fence
}

// EncodeBatch renders b as a checksummed frame. It fails rather than
// emit a frame larger than wire.MaxData.
func EncodeBatch(b *Batch) ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = binary.BigEndian.AppendUint32(buf, frameMagic)
	buf = binary.BigEndian.AppendUint64(buf, b.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, b.Seq)
	if b.Op == nil {
		buf = binary.BigEndian.AppendUint32(buf, 0)
	} else {
		buf = binary.BigEndian.AppendUint32(buf, 1)
		enc := wire.AppendRequest(nil, b.Op)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	buf = binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf))
	if len(buf) > wire.MaxData {
		return nil, fmt.Errorf("fleet: frame of %d bytes exceeds wire.MaxData", len(buf))
	}
	return buf, nil
}

// DecodeBatch parses and verifies one frame. Any structural damage —
// short buffer, bad magic, bad checksum, an op that does not decode —
// is an error; a backup never applies a frame it cannot fully verify.
func DecodeBatch(buf []byte) (*Batch, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("fleet: frame truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-8], binary.BigEndian.Uint64(buf[len(buf)-8:])
	if sim.FNV1a64(body) != sum {
		return nil, fmt.Errorf("fleet: frame checksum mismatch")
	}
	c := wire.Cursor{Buf: body}
	if m := c.U32(); m != frameMagic {
		return nil, fmt.Errorf("fleet: bad frame magic %#x", m)
	}
	b := &Batch{Epoch: c.U64(), Seq: c.U64()}
	nops := c.U32()
	if c.Err != nil {
		return nil, fmt.Errorf("fleet: frame header: %w", c.Err)
	}
	if nops > 1 {
		return nil, fmt.Errorf("fleet: frame declares %d ops", nops)
	}
	if nops == 1 {
		enc := c.Bytes32(wire.MaxData, true)
		if c.Err != nil {
			return nil, fmt.Errorf("fleet: frame op declares a length it cannot have: %w", c.Err)
		}
		op, err := wire.DecodeRequest(enc)
		if err != nil {
			return nil, fmt.Errorf("fleet: frame op: %w", err)
		}
		b.Op = op
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: frame: %w", err)
	}
	return b, nil
}

// Route is one shard's replica set at one configuration epoch. Primary
// first in spirit: Primary serves clients and replicates; Backups hold
// the shard and stand for promotion.
type Route struct {
	Shard   int
	Epoch   uint64
	Primary string
	Backups []string
}

// Table is the coordinator's routing view, carried to every node in
// heartbeat frames so deposed primaries learn where to redirect.
type Table struct {
	Routes []Route // ascending by Shard
}

// EncodeTable renders t for a heartbeat's Data.
func EncodeTable(t *Table) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(t.Routes)))
	for _, r := range t.Routes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Shard))
		buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
		buf = appendStr(buf, r.Primary)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Backups)))
		for _, b := range r.Backups {
			buf = appendStr(buf, b)
		}
	}
	return buf
}

// DecodeTable parses a heartbeat routing table.
func DecodeTable(buf []byte) (*Table, error) {
	c := wire.Cursor{Buf: buf}
	n := c.U32()
	if n > 1<<16 {
		return nil, fmt.Errorf("fleet: table declares %d routes", n)
	}
	t := &Table{}
	for i := uint32(0); i < n && c.Err == nil; i++ {
		r := Route{Shard: int(c.U32()), Epoch: c.U64(), Primary: c.Str16(maxStr)}
		for nb := c.U16(); nb > 0 && c.Err == nil; nb-- {
			r.Backups = append(r.Backups, c.Str16(maxStr))
		}
		t.Routes = append(t.Routes, r)
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: table: %w", err)
	}
	return t, nil
}

// ReplicaStatus is one replica's position, reported in heartbeat
// responses by the node that holds it — a node speaks for its own
// replicas and for nothing else. The coordinator promotes the
// most-advanced backup by (Epoch, Seq), evicts a backup too far behind
// its primary to replay, and reads a shard missing from a member's
// report as a replica that member no longer holds.
type ReplicaStatus struct {
	Shard int
	Role  Role
	Epoch uint64
	Seq   uint64
}

// Role is a replica's place in its shard's replica set.
type Role uint8

const (
	RoleBackup Role = iota
	RolePrimary
	// RoleDeposed marks a former primary fenced by a newer epoch; it
	// serves only StatusMoved until the coordinator reinstalls it.
	RoleDeposed
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	case RoleDeposed:
		return "deposed"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// EncodeStatus renders a node's per-replica status for a heartbeat
// response (ascending by shard).
func EncodeStatus(sts []ReplicaStatus) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(sts)))
	for _, st := range sts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(st.Shard))
		buf = append(buf, byte(st.Role))
		buf = binary.BigEndian.AppendUint64(buf, st.Epoch)
		buf = binary.BigEndian.AppendUint64(buf, st.Seq)
	}
	return buf
}

// DecodeStatus parses a heartbeat response's status blob.
func DecodeStatus(buf []byte) ([]ReplicaStatus, error) {
	c := wire.Cursor{Buf: buf}
	n := c.U32()
	if n > 1<<16 {
		return nil, fmt.Errorf("fleet: status declares %d replicas", n)
	}
	var sts []ReplicaStatus
	for i := uint32(0); i < n && c.Err == nil; i++ {
		sts = append(sts, ReplicaStatus{Shard: int(c.U32()), Role: Role(c.U8()), Epoch: c.U64(), Seq: c.U64()})
	}
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: status: %w", err)
	}
	return sts, nil
}

// maxStr is the bound of a u16-prefixed string whose only limit is its
// prefix's width (node ids, snapshot paths).
const maxStr = 1<<16 - 1

func appendStr(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}
