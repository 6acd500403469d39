package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
	"rio/internal/txn"
)

// TxnTest is the transactional oracle workload for the crash campaign:
// a fixed set of "account" files that must always carry the same commit
// id. Every commit rewrites all accounts to a new id in one transaction
// through the publish -> apply -> erase cycle of internal/txn, so after
// a crash plus recovery the accounts must either all show the crashed
// commit's id or all show an earlier (but never pre-ack) one. Accounts
// disagreeing after a clean recovery is a torn transaction — the defect
// the transaction layer exists to rule out.
//
// Each account file is a self-validating frame
//
//	magic u64 | id u64 | acct u32 | plen u32 | payload | cksum u64
//
// whose payload is a pure function of (seed, id, acct), so Verify can
// decode an id with confidence and distinguish "old but intact" from
// "smashed": a frame either checks out byte-for-byte against the oracle
// or counts as detected corruption, never as a plausible stale state.
type TxnTest struct {
	// Accounts is the number of account files rewritten per commit.
	Accounts int

	// LastAcked is the newest commit id whose full publish -> apply ->
	// erase cycle completed: the durability floor. LastAttempt is the
	// newest id whose commit began. After recovery the consistent id
	// must land in [LastAcked, LastAttempt].
	LastAcked   uint64
	LastAttempt uint64

	seed uint64

	// dirty is true while the log may hold a published record that was
	// not fully applied and erased (a commit errored short of a crash).
	// The next commit must roll it forward before publishing over it,
	// exactly as the server's shard does between batches.
	dirty bool
}

// txnAcctDir holds the account files; the txn log itself lives under
// txn.Dir and is owned by the transaction layer.
const txnAcctDir = "/txnacct"

// Account frame layout.
const (
	acctMagic  = 0x52696f41636374 // "RioAcct" tag; version in the low byte
	acctHeader = 8 + 8 + 4 + 4    // magic, id, acct, plen
	acctFooter = 8                // cksum
)

// NewTxnTest returns a workload over `accounts` files, all randomness
// and payload content derived from seed.
func NewTxnTest(seed uint64, accounts int) *TxnTest {
	if accounts < 2 {
		accounts = 2 // one account cannot tear
	}
	return &TxnTest{Accounts: accounts, seed: seed}
}

func (tt *TxnTest) path(acct int) string {
	return fmt.Sprintf("%s/a%02d", txnAcctDir, acct)
}

// payloadLen is a per-account constant so every rewrite of an account
// is exactly the same size: applyWrite does not truncate, and a
// variable length would leave stale frame tails behind older commits.
func (tt *TxnTest) payloadLen(acct int) int {
	return 64 + int(sim.Mix(tt.seed, uint64(acct))%448)
}

// acctContent builds the oracle frame for (id, acct).
func (tt *TxnTest) acctContent(id uint64, acct int) []byte {
	plen := tt.payloadLen(acct)
	buf := make([]byte, 0, acctHeader+plen+acctFooter)
	buf = binary.BigEndian.AppendUint64(buf, acctMagic<<8|1)
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(acct))
	buf = binary.BigEndian.AppendUint32(buf, uint32(plen))
	buf = append(buf, kernel.FillBytes(plen, sim.Mix(tt.seed, id, uint64(acct)))...)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:]))
}

// record builds the commit record rewriting every account to id.
func (tt *TxnTest) record(id uint64) txn.Record {
	rec := txn.Record{ID: id}
	for j := 0; j < tt.Accounts; j++ {
		rec.Ops = append(rec.Ops, txn.Op{
			Kind: txn.OpWrite,
			Path: tt.path(j),
			Data: tt.acctContent(id, j),
		})
	}
	return rec
}

// Setup creates the account directory and commits the baseline id so
// Verify always has a floor to check against.
func (tt *TxnTest) Setup(fsys *fs.FS) error {
	if err := fsys.Mkdir(txnAcctDir); err != nil && err != fs.ErrExists {
		return err
	}
	return tt.Commit(fsys)
}

// Commit runs one full transaction: publish the record, apply it to
// every account, erase the log, and only then advance LastAcked (the
// workload's ack). An error at any step leaves LastAcked behind and
// marks the log dirty; the next Commit rolls the leftover forward
// before publishing, mirroring the server's discipline that a
// published record is never discarded unapplied.
func (tt *TxnTest) Commit(fsys *fs.FS) error {
	l := txn.NewLog(fsys)
	if tt.dirty {
		// The crash probe keeps recovery from mistaking crash fallout
		// (the fs serves zeroes mid-panic) for a deterministic refusal
		// and quarantining a record that would replay fine at warmboot.
		opts := txn.Options{Crashed: func() bool { return fsys.K.Crashed() != nil }}
		if _, err := l.RecoverOpts(opts); err != nil {
			return err
		}
		tt.dirty = false
	}
	tt.LastAttempt++
	id := tt.LastAttempt
	rec := tt.record(id)
	tt.dirty = true // publish may leave a torn tail; recovery drops it
	if err := l.Publish([]txn.Record{rec}); err != nil {
		return err
	}
	if err := l.Apply(&rec); err != nil {
		return err
	}
	if err := l.Erase(); err != nil {
		return err
	}
	tt.dirty = false
	tt.LastAcked = id
	return nil
}

// TxnVerdict is Verify's judgement of the recovered accounts.
type TxnVerdict struct {
	// IDs holds the decoded id per account, valid entries only, in
	// account order (len < Accounts means some account was undecodable).
	IDs []uint64
	// Mixed: every account decoded but the ids disagree — a torn
	// transaction if recovery reported the storage itself clean.
	Mixed bool
	// LostAcked: a consistent state older than LastAcked — an acked
	// commit was un-done, a durability violation.
	LostAcked bool
	// Future: a consistent state newer than LastAttempt — a commit
	// nobody issued, which would mean the oracle itself is broken.
	Future bool
	// Failures lists every defect found, one entry per account at most
	// plus one for a mixed/ordering violation.
	Failures []Corruption
}

// Verify decodes every account and classifies the recovered state.
// Decode failures are detected corruption (the storage lost data and
// said so, in effect); only a set of fully valid frames with differing
// ids counts toward the torn-transaction verdict.
func (tt *TxnTest) Verify(fsys *fs.FS) TxnVerdict {
	var v TxnVerdict
	allValid := true
	for j := 0; j < tt.Accounts; j++ {
		id, detail := tt.decodeAcct(fsys, j)
		if detail != "" {
			allValid = false
			v.Failures = append(v.Failures, Corruption{tt.path(j), detail})
			continue
		}
		v.IDs = append(v.IDs, id)
	}
	if !allValid {
		return v
	}
	for _, id := range v.IDs[1:] {
		if id != v.IDs[0] {
			v.Mixed = true
			v.Failures = append(v.Failures, Corruption{txnAcctDir,
				fmt.Sprintf("accounts tore across commits: ids %v", v.IDs)})
			return v
		}
	}
	id := v.IDs[0]
	if id < tt.LastAcked {
		v.LostAcked = true
		v.Failures = append(v.Failures, Corruption{txnAcctDir,
			fmt.Sprintf("acked commit lost: accounts at id %d, acked through %d", id, tt.LastAcked)})
	}
	if id > tt.LastAttempt {
		v.Future = true
		v.Failures = append(v.Failures, Corruption{txnAcctDir,
			fmt.Sprintf("phantom commit: accounts at id %d, newest attempt %d", id, tt.LastAttempt)})
	}
	return v
}

// decodeAcct reads one account file and validates its frame end to
// end against the oracle. Returns the decoded id, or a non-empty
// detail describing why the frame is invalid.
func (tt *TxnTest) decodeAcct(fsys *fs.FS, acct int) (uint64, string) {
	p := tt.path(acct)
	f, err := fsys.Open(p)
	if err != nil {
		return 0, "missing: " + err.Error()
	}
	defer f.Close()
	st, err := fsys.Stat(p)
	if err != nil {
		return 0, "stat failed: " + err.Error()
	}
	want := acctHeader + tt.payloadLen(acct) + acctFooter
	if st.Size != int64(want) {
		return 0, fmt.Sprintf("size %d, want %d", st.Size, want)
	}
	data := make([]byte, want)
	if _, err := f.ReadAt(data, 0); err != nil {
		return 0, "read failed: " + err.Error()
	}
	if binary.BigEndian.Uint64(data) != acctMagic<<8|1 {
		return 0, "bad magic"
	}
	id := binary.BigEndian.Uint64(data[8:])
	if got := binary.BigEndian.Uint32(data[16:]); got != uint32(acct) {
		return 0, fmt.Sprintf("account field %d, want %d", got, acct)
	}
	if got := binary.BigEndian.Uint32(data[20:]); got != uint32(tt.payloadLen(acct)) {
		return 0, fmt.Sprintf("payload length field %d, want %d", got, tt.payloadLen(acct))
	}
	if got := binary.BigEndian.Uint64(data[want-acctFooter:]); got != sim.FNV1a64(data[8:want-acctFooter]) {
		return 0, "checksum mismatch"
	}
	// The frame is internally consistent; it must also match the oracle
	// bit for bit — content is a pure function of (seed, id, acct).
	if !bytes.Equal(data, tt.acctContent(id, acct)) {
		return 0, fmt.Sprintf("payload does not match oracle for id %d", id)
	}
	return id, ""
}
