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
// whose payload is a pure function of (seed, id, acct), so Check can
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
// Check always has a floor to check against.
func (tt *TxnTest) Setup(fsys *fs.FS) error {
	if err := mkdirs(fsys, txnAcctDir); err != nil {
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
		// Recovery consults the kernel's crash record, so crash fallout
		// (the fs serves zeroes mid-panic) never quarantines a record
		// that would replay fine at warmboot.
		if _, err := l.Recover(); err != nil {
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

// Check implements Workload: it decodes every account of a recovered
// (and rolled-forward, see Recover) tree and classifies the state.
// Decode failures are detected corruption (the storage lost data and
// said so, in effect); only a set of fully valid frames with differing
// ids is Torn, and a consistent id older than LastAcked is Lost —
// whether either conviction stands is the crash run's recovery-clean
// rule to decide. A consistent id newer than LastAttempt (a commit
// nobody issued: the oracle itself is broken) is a corruption.
func (tt *TxnTest) Check(fsys *fs.FS) Verdict {
	v := Verdict{Checked: tt.Accounts}
	ids := make([]uint64, 0, tt.Accounts)
	for j := 0; j < tt.Accounts; j++ {
		id, detail := tt.decodeAcct(fsys, j)
		if detail != "" {
			v.Corruptions = append(v.Corruptions, Corruption{tt.path(j), detail})
			continue
		}
		ids = append(ids, id)
	}
	if len(v.Corruptions) > 0 {
		return v
	}
	for _, id := range ids[1:] {
		if id != ids[0] {
			v.Torn++
			v.Corruptions = append(v.Corruptions, Corruption{txnAcctDir,
				fmt.Sprintf("accounts tore across commits: ids %v", ids)})
			return v
		}
	}
	id := ids[0]
	if id < tt.LastAcked {
		v.Lost++
		v.Corruptions = append(v.Corruptions, Corruption{txnAcctDir,
			fmt.Sprintf("acked commit lost: accounts at id %d, acked through %d", id, tt.LastAcked)})
	}
	if id > tt.LastAttempt {
		v.Corruptions = append(v.Corruptions, Corruption{txnAcctDir,
			fmt.Sprintf("phantom commit: accounts at id %d, newest attempt %d", id, tt.LastAttempt)})
	}
	return v
}

// decodeAcct reads one account file and validates its frame end to
// end against the oracle. Returns the decoded id, or a non-empty
// detail describing why the frame is invalid.
func (tt *TxnTest) decodeAcct(fsys *fs.FS, acct int) (uint64, string) {
	data, err := fsys.ReadFile(tt.path(acct))
	if err != nil {
		return 0, "unreadable: " + err.Error()
	}
	want := acctHeader + tt.payloadLen(acct) + acctFooter
	if len(data) != want {
		return 0, fmt.Sprintf("size %d, want %d", len(data), want)
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
