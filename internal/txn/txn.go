// Package txn is the WAL-free transaction layer over the protected file
// cache (ROADMAP item 3): multi-op atomicity built on the paper's claim
// that memory with no reliability-induced writes *is* stable storage.
//
// A transaction commits by publishing a commit record into the file
// system — which, under Rio, means into protected cache memory: the
// record is durable the instant the write returns, with no disk barrier
// and no ordering constraint against the data it describes. The
// protocol is
//
//	publish → apply → erase → ack
//
// Publish writes the sealed record (all staged ops, checksummed) to the
// log file. Apply executes the ops; every op is idempotent, so a replay
// after a crash converges to the same state. Erase unlinks the log —
// and because unlinking drops the file's dirty pages from the registry
// without write-back, an erased record can never resurface at warm
// reboot. Ack (the caller answering its client) comes strictly last.
//
// The crash-safety argument follows from that order alone:
//
//   - Crash mid-publish: the record's checksum fails, Recover discards
//     it. The commit was never acked, so nothing promised is lost, and
//     none of its ops ran, so nothing partial is visible.
//   - Crash mid-apply: the record is intact in protected memory.
//     Recover rolls it forward to completion — the transaction becomes
//     visible atomically even though its commit was never acked.
//   - Crash after erase: there is nothing to replay, and the fully
//     applied state is durable (Rio's ordinary write guarantee).
//
// The log therefore never holds an acked transaction: ack happens only
// after erase. Discarding any unparseable tail is always safe, and
// replaying any parseable record is always safe (idempotence). Compare
// the write-ahead log this design rejects: a WAL must be written — and
// synced — *before* the data, which is exactly the reliability-induced
// I/O Rio exists to eliminate; see DESIGN.md §7c.
//
// The package operates on *fs.FS so the riod serving layer, the crash
// harness, and examples can share it without import cycles. It is
// deterministic: no host clock, no map iteration, no randomness.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
	"rio/internal/wire"
)

// OpKind identifies one transactional operation.
type OpKind uint8

// The transactional op kinds. Reads are not transactional (clients read
// committed state directly); appends are excluded because an append's
// final offset is unknowable at stage time, and replaying it would
// double-apply.
const (
	OpWrite  OpKind = 1 + iota // write Data to Path at Off (absolute)
	OpMkdir                    // create directory Path (mkdir -p)
	OpRemove                   // unlink file / remove empty dir Path
	OpRename                   // rename Path to Path2
)

// Op is one staged operation.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename destination
	Off   int64  // write offset (absolute; never negative)
	Data  []byte // write payload
}

// Record is one sealed transaction: the unit of atomicity.
type Record struct {
	ID  uint64
	Ops []Op
}

// Log paths and limits. The /.txn prefix is reserved: the serving layer
// refuses client operations under it, so the log can never collide with
// user data and Publish may reorder freely against other requests.
const (
	Dir            = "/.txn"
	LogPath        = "/.txn/log"
	QuarantinePath = "/.txn/quarantine"

	// MaxOps bounds ops per record; MaxPathLen and MaxDataLen bound the
	// variable fields. Recover validates every declared length against
	// these and the bytes present before allocating, so a corrupt frame
	// cannot balloon recovery's memory. Publish enforces the same limits
	// on the way in (validateRecord), so a frame that parseRecord would
	// reject as torn can never be published in the first place.
	MaxOps     = 1024
	MaxPathLen = 4096
	MaxDataLen = 1 << 20
)

// MaxPublishBytes bounds one group publish: the encoded frames of every
// record in the group must fit a single fs file. Publish refuses larger
// groups before touching the log; group-commit callers budget batches
// against it with Record.EncodedSize and defer commits that do not fit.
const MaxPublishBytes = fs.MaxFileBytes

// frameMagic opens every record frame ("RioTxn1\n" big-endian). A frame
// whose first 8 bytes differ is a torn tail and parsing stops.
const frameMagic = 0x52696f54786e310a

// quarantineMagic opens the quarantine file ("RioTxnQ\n" big-endian).
// It differs from frameMagic so neither ParseAll nor lost+found salvage
// can ever mistake quarantined records for a replayable log.
const quarantineMagic = 0x52696f54786e510a

// CanonicalPath normalizes path to the single spelling the fs resolves
// it as: a leading "/", components joined by single slashes, no trailing
// slash ("/" itself for the root). It returns ok=false for paths the fs
// would refuse — the empty string or any ".", "..", or empty component.
// The fs trims outer slashes before walking components, so "a",
// "//a", and "/a/" all reach the same file; every layer that compares
// path strings — shard routing, the /.txn reservation, the precheck
// overlay — must compare canonical spellings or an alias slips past it.
func CanonicalPath(path string) (string, bool) {
	if isCanonical(path) {
		return path, true
	}
	if path == "" {
		return "", false
	}
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return "/", true
	}
	comps := strings.Split(trimmed, "/")
	for _, c := range comps {
		if c == "" || c == "." || c == ".." {
			return "", false
		}
	}
	return "/" + strings.Join(comps, "/"), true
}

// isCanonical reports whether path is already in canonical form, without
// allocating — the common case on the serving path.
func isCanonical(path string) bool {
	if len(path) < 2 || path[0] != '/' || path[len(path)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		switch path[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// AppendRecord appends rec's frame to dst: magic, checksum, then the
// checksummed body (id, op count, ops). The checksum covers everything
// after itself, so a frame torn at any byte fails verification.
func AppendRecord(dst []byte, rec *Record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, frameMagic)
	cksumAt := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, 0) // checksum placeholder
	bodyAt := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, rec.ID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Ops)))
	for i := range rec.Ops {
		op := &rec.Ops[i]
		dst = append(dst, byte(op.Kind))
		dst = binary.BigEndian.AppendUint64(dst, uint64(op.Off))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(op.Path)))
		dst = append(dst, op.Path...)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(op.Path2)))
		dst = append(dst, op.Path2...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(op.Data)))
		dst = append(dst, op.Data...)
	}
	binary.BigEndian.PutUint64(dst[cksumAt:], sim.FNV1a64(dst[bodyAt:]))
	return dst
}

// EncodedSize returns the exact byte length AppendRecord emits for r.
// Group-commit callers budget a batch against MaxPublishBytes with it.
func (r *Record) EncodedSize() int {
	n := 28 // magic + checksum + id + op count
	for i := range r.Ops {
		op := &r.Ops[i]
		n += 17 + len(op.Path) + len(op.Path2) + len(op.Data)
	}
	return n
}

// parseRecord decodes one frame from the front of buf, returning the
// record and the bytes consumed. ok is false for anything malformed —
// wrong magic, truncation, over-limit length, checksum mismatch — which
// Recover treats as the torn tail: discard it and everything after.
func parseRecord(buf []byte) (rec Record, n int, ok bool) {
	c := wire.Cursor{Buf: buf}
	if c.U64() != frameMagic {
		return rec, 0, false
	}
	declared := c.U64()
	bodyAt := c.Off
	rec.ID = c.U64()
	nops := c.U32()
	if c.Err != nil || nops > MaxOps {
		return rec, 0, false
	}
	rec.Ops = make([]Op, 0, nops)
	for i := uint32(0); i < nops; i++ {
		var op Op
		op.Kind = OpKind(c.U8())
		op.Off = int64(c.U64())
		op.Path = c.Str16(MaxPathLen)
		op.Path2 = c.Str16(MaxPathLen)
		op.Data = c.Bytes32(MaxDataLen, false)
		if c.Err != nil || op.Kind < OpWrite || op.Kind > OpRename {
			return rec, 0, false
		}
		rec.Ops = append(rec.Ops, op)
	}
	if sim.FNV1a64(buf[bodyAt:c.Off]) != declared {
		return rec, 0, false
	}
	return rec, c.Off, true
}

// ParseAll decodes the contiguous valid record prefix of data. The first
// malformed frame ends the parse: everything from there on is a torn
// tail, and — because ack strictly follows erase — provably unacked.
func ParseAll(data []byte) []Record {
	var out []Record
	for len(data) > 0 {
		rec, n, ok := parseRecord(data)
		if !ok {
			break
		}
		out = append(out, rec)
		data = data[n:]
	}
	return out
}

// Log is the commit log on one shard's file system. Not safe for
// concurrent use: like the FS it wraps, it belongs to one goroutine.
type Log struct {
	fs *fs.FS
}

// NewLog returns the commit log for fsys.
func NewLog(fsys *fs.FS) *Log { return &Log{fs: fsys} }

// validateRecord refuses records whose frames parseRecord would reject.
// Publishing one would be a trap: the record applies at commit time yet
// vanishes from crash recovery as a "torn tail" — exactly the corruption
// the frame format exists to rule out. The riod staging layer stays
// within these limits by construction; a direct library user gets the
// error instead of a silently unrecoverable frame. Paths must already be
// canonical (CanonicalPath): the precheck overlay and every string
// comparison downstream assume one spelling per file.
func validateRecord(rec *Record) error {
	if len(rec.Ops) > MaxOps {
		return fmt.Errorf("txn: record %d: %d ops exceeds MaxOps=%d", rec.ID, len(rec.Ops), MaxOps)
	}
	for i := range rec.Ops {
		op := &rec.Ops[i]
		if op.Kind < OpWrite || op.Kind > OpRename {
			return fmt.Errorf("txn: record %d op %d: unknown kind %d", rec.ID, i, op.Kind)
		}
		if len(op.Path) > MaxPathLen || len(op.Path2) > MaxPathLen {
			return fmt.Errorf("txn: record %d op %d: path exceeds MaxPathLen=%d", rec.ID, i, MaxPathLen)
		}
		if cp, ok := CanonicalPath(op.Path); !ok || cp != op.Path {
			return fmt.Errorf("txn: record %d op %d: path %q is not canonical", rec.ID, i, op.Path)
		}
		if op.Kind == OpRename {
			if cp, ok := CanonicalPath(op.Path2); !ok || cp != op.Path2 {
				return fmt.Errorf("txn: record %d op %d: rename destination %q is not canonical", rec.ID, i, op.Path2)
			}
		} else if op.Path2 != "" {
			return fmt.Errorf("txn: record %d op %d: path2 is only valid for rename", rec.ID, i)
		}
		if op.Kind == OpWrite {
			if op.Off < 0 {
				return fmt.Errorf("txn: record %d op %d: negative offset %d", rec.ID, i, op.Off)
			}
			if len(op.Data) > MaxDataLen {
				return fmt.Errorf("txn: record %d op %d: %d data bytes exceeds MaxDataLen=%d", rec.ID, i, len(op.Data), MaxDataLen)
			}
		} else {
			if len(op.Data) != 0 {
				return fmt.Errorf("txn: record %d op %d: data is only valid for write", rec.ID, i)
			}
			if op.Off != 0 {
				return fmt.Errorf("txn: record %d op %d: offset is only valid for write", rec.ID, i)
			}
		}
	}
	return nil
}

// Publish atomically-enough writes the group's sealed records to the
// log: one fresh file per publish (the previous log, if any, was erased
// or is superseded), written front to back so a crash leaves a valid
// record prefix plus a checksummed-detectable torn tail. This is the
// group-commit write — one log publish covers every record in recs.
// Records are validated (validateRecord) and the group sized against
// MaxPublishBytes before the log is touched, so a publish can only fail
// mid-write for resource or crash reasons — and then the partial file is
// unlinked, because a surviving valid prefix would replay commits the
// caller never acked as published.
func (l *Log) Publish(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	total := 0
	for i := range recs {
		if err := validateRecord(&recs[i]); err != nil {
			return err
		}
		total += recs[i].EncodedSize()
	}
	if int64(total) > MaxPublishBytes {
		return fmt.Errorf("txn: publish: group of %d records encodes to %d bytes, over MaxPublishBytes=%d; split the group", len(recs), total, MaxPublishBytes)
	}
	buf := make([]byte, 0, total)
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	if err := l.fs.MkdirAll(Dir); err != nil {
		return fmt.Errorf("txn: publish: %w", err)
	}
	// A fresh file per publish: the FS has no truncate, and a stale tail
	// from a longer previous log would replay dropped transactions.
	if err := l.fs.Unlink(LogPath); err != nil && err != fs.ErrNotFound {
		return fmt.Errorf("txn: publish: %w", err)
	}
	f, err := l.fs.Create(LogPath)
	if err != nil {
		return fmt.Errorf("txn: publish: %w", err)
	}
	// On any failure past this point a partial log may exist; unlink it
	// (best effort — if even that fails the machine is crashing and the
	// caller's crash path owns the at-least-once ambiguity).
	fail := func(err error) error {
		f.Close()
		l.fs.Unlink(LogPath)
		return fmt.Errorf("txn: publish: %w", err)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fail(err)
	}
	// The durability point. Under Rio this returns immediately — the
	// record already is stable storage; under write-through policies it
	// is the synchronous log write a WAL would have cost.
	if err := l.fs.Fsync(f); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		l.fs.Unlink(LogPath)
		return fmt.Errorf("txn: publish: %w", err)
	}
	return nil
}

// CheckError reports that Apply's precheck refused a record before
// executing any of its ops: the op at OpIndex cannot succeed against the
// current tree, and retrying will fail identically. Nothing was mutated
// — the failure is atomic, so the caller may answer the commit with a
// typed error and drop the record without leaving partial state behind.
type CheckError struct {
	RecID   uint64
	OpIndex int
	Err     error
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("txn: precheck record %d op %d: %v", e.RecID, e.OpIndex, e.Err)
}

func (e *CheckError) Unwrap() error { return e.Err }

// deterministic reports whether err is a shape-of-the-tree error that
// recurs identically on every retry, as opposed to resource pressure
// (ErrNoSpace, ErrNoInodes), a degraded mount (ErrReadOnly), or crash
// fallout — all of which a later recovery might not see. Callers must
// rule out a crash first (l.fs.K.Crashed()): after a kernel panic the fs
// serves zeroes and unwinds with arbitrary-looking errors, including
// these sentinels.
func deterministic(err error) bool {
	for _, sentinel := range []error{
		fs.ErrNotFound, fs.ErrExists, fs.ErrNotDir, fs.ErrIsDir,
		fs.ErrNotEmpty, fs.ErrTooBig, fs.ErrNameTooLong, fs.ErrSymlinkLoop,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// entKind is the precheck overlay's belief about one path after the ops
// simulated so far.
type entKind uint8

const (
	entGone entKind = 1 + iota // removed or renamed away
	entFile
	entDir
)

// checker simulates a record's ops against the live tree plus an overlay
// of the record's own effects, mirroring Apply's idempotent semantics op
// for op, so a refused record provably mutated nothing.
type checker struct {
	l  *Log
	ov map[string]entKind
	// ovKeys is ov's insertion order; iterating it instead of the map
	// keeps precheck deterministic (the package promises no map
	// iteration).
	ovKeys []string
}

func (c *checker) set(path string, k entKind) {
	if _, seen := c.ov[path]; !seen {
		c.ovKeys = append(c.ovKeys, path)
	}
	c.ov[path] = k
}

// stat resolves path through the overlay first, then the live fs.
func (c *checker) stat(path string) (entKind, error) { return c.look(path, c.l.fs.Stat) }

// look is stat with the live fs asked through fsStat: Stat where apply
// will follow a link (open, mkdir -p, rename's source), StatEntry where
// it will not (remove) — a link is then a non-directory entry, whatever
// it points at.
func (c *checker) look(path string, fsStat func(string) (fs.FileInfo, error)) (entKind, error) {
	if k, ok := c.ov[path]; ok {
		if k == entGone {
			return 0, fs.ErrNotFound
		}
		return k, nil
	}
	st, err := fsStat(path)
	if err != nil {
		return 0, err
	}
	if st.IsDir {
		return entDir, nil
	}
	return entFile, nil
}

func (c *checker) write(op *Op) error {
	if op.Off < 0 {
		return fmt.Errorf("negative offset %d", op.Off)
	}
	if op.Off+int64(len(op.Data)) > fs.MaxFileBytes {
		return fs.ErrTooBig
	}
	k, err := c.stat(op.Path)
	switch {
	case err == fs.ErrNotFound:
		if err := c.mkdirAll(fs.ParentDir(op.Path)); err != nil {
			return err
		}
		c.set(op.Path, entFile)
	case err != nil:
		return err
	case k == entDir:
		return fs.ErrIsDir
	}
	return nil
}

func (c *checker) mkdirAll(path string) error {
	if path == "" || path == "/" {
		return nil
	}
	k, err := c.stat(path)
	switch {
	case err == fs.ErrNotFound:
		if err := c.mkdirAll(fs.ParentDir(path)); err != nil {
			return err
		}
		c.set(path, entDir)
	case err != nil:
		return err
	case k == entFile:
		return fs.ErrNotDir
	}
	return nil
}

func (c *checker) remove(path string) error {
	k, err := c.look(path, c.l.fs.StatEntry)
	if err == fs.ErrNotFound {
		return nil // already removed: replay success
	}
	if err != nil {
		return err
	}
	if k == entDir {
		empty, err := c.dirEmpty(path)
		if err != nil {
			return err
		}
		if !empty {
			return fs.ErrNotEmpty
		}
	}
	c.set(path, entGone)
	return nil
}

func (c *checker) rename(op *Op) error {
	srcKind, err := c.stat(op.Path)
	if err == fs.ErrNotFound {
		return nil // source gone: the rename already ran
	}
	if err != nil {
		return err
	}
	if err := c.mkdirAll(fs.ParentDir(op.Path2)); err != nil {
		return err
	}
	dstKind, err := c.stat(op.Path2)
	switch {
	case err == fs.ErrNotFound:
	case err != nil:
		return err
	case dstKind == entDir:
		return fs.ErrIsDir
	}
	c.set(op.Path, entGone)
	c.set(op.Path2, srcKind)
	return nil
}

// dirEmpty reports whether path would be empty: live children not
// overlay-deleted, plus overlay entries created under it.
func (c *checker) dirEmpty(path string) (bool, error) {
	ents, err := c.l.fs.ReadDir(path)
	switch err {
	case nil:
	case fs.ErrNotFound, fs.ErrNotDir:
		// Overlay-only directory: any children live in the overlay.
		ents = nil
	default:
		return false, err
	}
	prefix := path + "/"
	if path == "/" {
		prefix = "/"
	}
	for _, e := range ents {
		if k, ok := c.ov[prefix+e.Name]; ok && k == entGone {
			continue
		}
		return false, nil
	}
	for _, k := range c.ovKeys {
		if strings.HasPrefix(k, prefix) && k != path && c.ov[k] != entGone {
			return false, nil
		}
	}
	return true, nil
}

// checkPath canonicalizes a record path for the precheck overlay and
// refuses components the fs itself would refuse, so spelling can neither
// alias two overlay keys nor fail deterministically mid-apply.
func checkPath(p string) (string, error) {
	cp, ok := CanonicalPath(p)
	if !ok {
		return "", fmt.Errorf("malformed path %q", p)
	}
	for rest := cp[1:]; rest != ""; {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		if len(comp) > fs.MaxNameLen {
			return "", fs.ErrNameTooLong
		}
	}
	return cp, nil
}

// precheck simulates rec against the live tree before Apply mutates
// anything, so a record the tree's shape rejects fails atomically (a
// *CheckError) instead of stranding a partial application. Passing does
// not guarantee Apply succeeds — space can run out, the machine can
// crash — it guarantees no *deterministic* failure strikes mid-record.
func (l *Log) precheck(rec *Record) error {
	c := &checker{l: l, ov: make(map[string]entKind)}
	for i := range rec.Ops {
		cop := rec.Ops[i]
		var err error
		cop.Path, err = checkPath(cop.Path)
		if err == nil && cop.Kind == OpRename {
			cop.Path2, err = checkPath(cop.Path2)
		}
		if err == nil {
			switch cop.Kind {
			case OpWrite:
				err = c.write(&cop)
			case OpMkdir:
				err = c.mkdirAll(cop.Path)
			case OpRemove:
				err = c.remove(cop.Path)
			case OpRename:
				err = c.rename(&cop)
			default:
				err = fmt.Errorf("unknown op kind %d", cop.Kind)
			}
		}
		if err != nil {
			return &CheckError{RecID: rec.ID, OpIndex: i, Err: err}
		}
	}
	return nil
}

// Apply executes rec's ops in order, after precheck proves the tree's
// shape cannot reject any of them partway (a shape rejection surfaces as
// a *CheckError with nothing mutated). Every op is idempotent — applying
// a record any number of times, including resuming after a partial
// application, converges to the same state:
//
//   - write: absolute offset, so a re-write lands identically
//   - mkdir: exists is success
//   - remove: not-found is success
//   - rename: a missing source with no destination either way means the
//     rename (or its remove) already happened — success
func (l *Log) Apply(rec *Record) error {
	if err := l.precheck(rec); err != nil {
		return err
	}
	for i := range rec.Ops {
		op := &rec.Ops[i]
		var err error
		switch op.Kind {
		case OpWrite:
			err = l.applyWrite(op)
		case OpMkdir:
			err = l.fs.MkdirAll(op.Path)
		case OpRemove:
			if err = l.fs.Remove(op.Path); err == fs.ErrNotFound {
				err = nil // already removed
			}
		case OpRename:
			err = l.applyRename(op)
		default:
			err = fmt.Errorf("unknown op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("txn: apply record %d op %d (%q): %w", rec.ID, i, op.Path, err)
		}
	}
	return nil
}

func (l *Log) applyWrite(op *Op) error {
	if op.Off < 0 {
		return fmt.Errorf("negative offset %d", op.Off)
	}
	f, err := l.fs.Open(op.Path)
	if err == fs.ErrNotFound {
		if err := l.fs.MkdirAll(fs.ParentDir(op.Path)); err != nil {
			return err
		}
		f, err = l.fs.Create(op.Path)
	}
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(op.Data, op.Off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *Log) applyRename(op *Op) error {
	if _, err := l.fs.Stat(op.Path); err == fs.ErrNotFound {
		// Source gone: on replay this means the rename already ran.
		return nil
	} else if err != nil {
		return err
	}
	if err := l.fs.MkdirAll(fs.ParentDir(op.Path2)); err != nil {
		return err
	}
	return l.fs.Rename(op.Path, op.Path2)
}

// Erase unlinks the log. Unlink drops the file's dirty pages from the
// registry without write-back, so erased records are gone from every
// recovery path — warm reboot cannot restore them and salvage cannot
// resurrect them. That is what makes erase-then-ack sufficient: a
// record still visible to recovery is by construction unacked.
func (l *Log) Erase() error {
	if err := l.fs.Unlink(LogPath); err != nil && err != fs.ErrNotFound {
		return fmt.Errorf("txn: erase: %w", err)
	}
	return nil
}

// Quarantine appends rec's frame to the quarantine file: the audit
// trail of records recovery refused to apply. The file opens with
// quarantineMagic, not frameMagic, so no recovery path — ParseAll on the
// log, salvage in /lost+found — can ever replay it; it exists for the
// operator, and duplicates (a crash between quarantine and erase) are
// harmless.
func (l *Log) Quarantine(rec *Record) error {
	if err := l.fs.MkdirAll(Dir); err != nil {
		return fmt.Errorf("txn: quarantine: %w", err)
	}
	off := int64(0)
	if st, err := l.fs.Stat(QuarantinePath); err == nil && !st.IsDir {
		off = st.Size
	}
	var buf []byte
	if off == 0 {
		buf = binary.BigEndian.AppendUint64(buf, quarantineMagic)
	}
	buf = AppendRecord(buf, rec)
	f, err := l.fs.Open(QuarantinePath)
	if err == fs.ErrNotFound {
		f, err = l.fs.Create(QuarantinePath)
	}
	if err != nil {
		return fmt.Errorf("txn: quarantine: %w", err)
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		f.Close()
		return fmt.Errorf("txn: quarantine: %w", err)
	}
	if err := l.fs.Fsync(f); err != nil {
		f.Close()
		return fmt.Errorf("txn: quarantine: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("txn: quarantine: %w", err)
	}
	return nil
}

// RecoverStats reports what a recovery found and did.
type RecoverStats struct {
	Records     int // valid records found (log + salvage)
	Applied     int // records rolled forward
	Quarantined int // records refused deterministically and quarantined
	SalvageLogs int // /lost+found files recognised as txn-log salvage
}

// Recover rolls the published log forward after a crash: parse the
// valid record prefix, apply every record, erase. It also sweeps
// /lost+found for salvaged log pages — if the crash cost the log file
// its metadata, warm reboot reassembles the orphaned pages at their
// original offsets under /lost+found, where the frame magic identifies
// them — and rolls those forward too. Anything in either place is
// unacked-or-mid-apply, so replaying is always safe and dropping a
// torn tail never loses a promised commit.
// Each apply, salvage unlink and the erase is a crash point of the fs's
// kernel; recovery halted at one restarts from scratch and, every step
// being idempotent, converges.
func (l *Log) Recover() (RecoverStats, error) {
	var st RecoverStats
	cp := l.fs.K.CrashPoint

	data, err := l.readFile(LogPath)
	if err != nil {
		// An unreadable log is not an empty one: erasing it would
		// silently discard published (possibly mid-apply) records, so
		// recovery refuses to proceed instead of guessing.
		return st, err
	}
	recs := ParseAll(data)
	salvage := l.salvageLogs()
	st.SalvageLogs = len(salvage)
	for _, sv := range salvage {
		recs = append(recs, sv.recs...)
	}
	st.Records = len(recs)

	for i := range recs {
		if cp.Point() {
			return st, kernel.ErrCrashPoint
		}
		if err := l.Apply(&recs[i]); err != nil {
			// After a kernel panic the fs serves zeroes and unwinds with
			// arbitrary-looking errors: crash fallout is never classified
			// as a deterministic refusal.
			if l.fs.K.Crashed() != nil {
				return st, err
			}
			var ce *CheckError
			if errors.As(err, &ce) || deterministic(err) {
				// The tree's shape rejects this record and always will;
				// retrying forever would wedge the shard on one bad
				// record. It was never acked — erase follows apply and
				// ack follows erase — so dropping it breaks no promise.
				// Keep the evidence and move on.
				if qerr := l.Quarantine(&recs[i]); qerr != nil {
					return st, qerr
				}
				st.Quarantined++
				continue
			}
			return st, err
		}
		st.Applied++
	}
	for _, sv := range salvage {
		if cp.Point() {
			return st, kernel.ErrCrashPoint
		}
		if err := l.fs.Unlink(sv.path); err != nil && err != fs.ErrNotFound {
			return st, fmt.Errorf("txn: recover: %w", err)
		}
	}
	if cp.Point() {
		return st, kernel.ErrCrashPoint
	}
	if err := l.Erase(); err != nil {
		return st, err
	}
	return st, nil
}

// readFile returns path's contents. A missing file is (nil, nil): an
// erased or never-published log. Anything else that prevents reading is
// an error, never an empty result — a caller that mistook "could not
// read" for "nothing there" would erase a log whose published records
// may be mid-apply.
func (l *Log) readFile(path string) ([]byte, error) {
	b, err := l.fs.ReadFile(path)
	if err == fs.ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("txn: read %s: %w", path, err)
	}
	return b, nil
}

type salvagedLog struct {
	path string
	recs []Record
}

// salvageLogs scans /lost+found for files whose content opens with the
// frame magic — warm reboot's salvage of an orphaned txn log — and
// parses their record prefixes. Files are visited in sorted name order
// so recovery is deterministic.
func (l *Log) salvageLogs() []salvagedLog {
	ents, err := l.fs.ReadDir("/lost+found")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir && !e.IsSymlink {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	var out []salvagedLog
	for _, name := range names {
		path := "/lost+found/" + name
		data, err := l.readFile(path)
		if err != nil {
			// Unreadable salvage candidates stay in place: skipping one
			// never erases it, so nothing published is discarded.
			continue
		}
		if len(data) < 8 {
			continue
		}
		var magic uint64
		for _, b := range data[:8] {
			magic = magic<<8 | uint64(b)
		}
		if magic != frameMagic {
			continue
		}
		if recs := ParseAll(data); len(recs) > 0 {
			out = append(out, salvagedLog{path: path, recs: recs})
		}
	}
	return out
}
