package server

import (
	"strings"
	"testing"

	"rio/internal/wire"
)

// TestOpTableObeyed walks every op wire defines and holds Server.Do to
// the op's row in wire's table: refused or accepted bare, with one path
// where the row wants two, and carrying a live transaction handle,
// exactly as the row says. samples holds a request exec serves for each
// op it serves; an op added to wire with a row but no arm in exec — or an
// arm but no sample here — fails the "not servable" expectation, and one
// without a row has no name and fails before that.
func TestOpTableObeyed(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Seed: 5})
	samples := map[wire.Op]*wire.Request{
		wire.OpOpen:  {Path: "/t/f"},
		wire.OpRead:  {Path: "/t/f"},
		wire.OpWrite: {Path: "/t/f", Data: []byte("x")},
		wire.OpMkdir: {Path: "/t/d"},
		wire.OpRm:    {Path: "/t/d"},
		wire.OpMv:    {Path: "/t/f", Path2: "/t/g"},
		wire.OpStat:  {Path: "/t/g"},
		wire.OpSync:  {Path: "/t/g"},
	}
	ops := 0
	for op := wire.OpInvalid + 1; op.Valid(); op++ {
		ops++
		if name := op.String(); name == "" || strings.HasPrefix(name, "op(") {
			t.Fatalf("op %d has no row in wire's op table", uint8(op))
		}
		req := func(txn uint64) *wire.Request {
			r := wire.Request{ID: uint64(op), Op: op, Shard: -1, Path: "/t/x", Txn: txn}
			if sample := samples[op]; sample != nil {
				r.Path, r.Path2, r.Data = sample.Path, sample.Path2, sample.Data
			}
			return &r
		}
		refusedAs := func(r *wire.Response, why string) {
			t.Helper()
			if r.Status != wire.StatusInvalid || !strings.Contains(r.Msg, why) {
				t.Fatalf("%v: answered (%v, %q), want invalid: %s", op, r.Status, r.Msg, why)
			}
		}

		// Inside a transaction: staged, resolved, or refused by the row.
		if !op.Admin() {
			h := begin(t, s, "/t/x")
			r := do(t, s, req(h))
			switch {
			case op == wire.OpTxnBegin:
				refusedAs(r, "inside a transaction")
			case op.TxnControl(), op.Stageable():
				if r.Status != wire.StatusOK {
					t.Fatalf("%v with a live handle: %+v", op, r)
				}
			default:
				refusedAs(r, "cannot run inside a transaction")
			}
			if !op.TxnControl() { // commit and abort resolved it themselves
				if r := do(t, s, &wire.Request{Op: wire.OpTxnAbort, Shard: -1, Txn: h}); r.Status != wire.StatusOK {
					t.Fatalf("abort after staging %v: %+v", op, r)
				}
			}
		}

		// Bare.
		bare := req(0)
		switch {
		case op.Admin():
			bare.Shard = 7
			refusedAs(do(t, s, bare), "out of range")
			bare.Shard = 0
			if r := do(t, s, bare); r.Status != wire.StatusOK {
				t.Fatalf("admin op %v on shard 0: %+v", op, r)
			}
			continue
		case op == wire.OpTxnBegin:
			if r := do(t, s, bare); r.Status != wire.StatusOK || r.Size == 0 {
				t.Fatalf("bare %v: %+v", op, r)
			}
			continue
		case op.TxnControl():
			refusedAs(do(t, s, bare), "needs a transaction handle")
			continue
		}
		if op.TwoPaths() {
			onePath := req(0)
			onePath.Path2 = ""
			refusedAs(do(t, s, onePath), "needs two paths")
		}
		pathless := req(0)
		pathless.Path, pathless.Path2 = "", ""
		if r := do(t, s, pathless); op != wire.OpSync && r.Status != wire.StatusInvalid {
			t.Fatalf("%v without a path: %+v", op, r)
		}
		if samples[op] == nil {
			refusedAs(do(t, s, bare), "not servable")
		} else if r := do(t, s, bare); r.Status != wire.StatusOK {
			t.Fatalf("bare %v: %+v", op, r)
		}
	}
	if ops < len(samples)+2+3 {
		t.Fatalf("walked %d ops; wire defines at least the %d served, 2 admin and 3 transaction ones", ops, len(samples))
	}
	// The staging map covers exactly the stageable ops.
	for op := wire.OpInvalid + 1; op.Valid(); op++ {
		if staged := int(op) < len(stagedKind) && stagedKind[op] != 0; staged != op.Stageable() {
			t.Errorf("%v: stagedKind has it %v, the op table %v", op, staged, op.Stageable())
		}
	}
}
