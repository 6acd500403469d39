package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpOpen, Shard: -1, Path: "/a"},
		{ID: 2, Op: OpRead, Shard: -1, Offset: 4096, Len: 8192, Path: "/bench/k0001"},
		{ID: 3, Op: OpWrite, Shard: -1, Offset: -1, Path: "/log", Data: []byte("hello, rio")},
		{ID: 4, Op: OpMkdir, Shard: -1, Path: "/dir"},
		{ID: 5, Op: OpRm, Shard: -1, Path: "/dir"},
		{ID: 6, Op: OpMv, Shard: -1, Path: "/a", Path2: "/b"},
		{ID: 7, Op: OpStat, Shard: -1, Path: "/b"},
		{ID: 8, Op: OpSync, Shard: -1},
		{ID: 9, Op: OpCrash, Shard: 2},
		{ID: 10, Op: OpWarmboot, Shard: 2},
		{ID: 11, Op: OpTxnBegin, Shard: -1, Path: "/a"},
		{ID: 12, Op: OpWrite, Shard: -1, Txn: 3<<32 | 1, Path: "/a", Data: []byte("staged")},
		{ID: 13, Op: OpTxnCommit, Shard: -1, Txn: 3<<32 | 1},
		{ID: 14, Op: OpTxnAbort, Shard: -1, Txn: 3<<32 | 2},
		{ID: 15, Op: OpReplBatch, Shard: 5, Data: []byte("batch sub-frame")},
		{ID: 16, Op: OpReplPull, Shard: 5, Offset: 99},
		{ID: 17, Op: OpSnapshot, Shard: 5, Offset: 4096},
		{ID: 18, Op: OpHeartbeat, Shard: -1, Data: []byte("routing")},
		{ID: ^uint64(0), Op: OpWrite, Shard: -1, Offset: 1<<62 - 1, Path: "/x", Data: make([]byte, 3000)},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range sampleRequests() {
		buf := AppendRequest(nil, want)
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", want.Op, err)
		}
		if want.Data == nil {
			want.Data = got.Data // nil vs empty: both encode to length 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	samples := []*Response{
		{ID: 1, Status: StatusOK, Size: 42, Data: []byte("payload")},
		{ID: 2, Status: StatusNotFound, Msg: "fs: no such file or directory"},
		{ID: 3, Status: StatusAgain, Msg: "shard 2 down (awaiting warmboot)"},
		{ID: 4, Status: StatusOK, Flags: FlagDir | FlagSymlink, Size: 8192},
	}
	for _, want := range samples {
		buf := AppendResponse(nil, want)
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if want.Data == nil {
			want.Data = got.Data
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// Every strict prefix of a valid encoding must decode to ErrTruncated
// (or a length error), never succeed and never panic.
func TestDecodeRequestTruncations(t *testing.T) {
	full := AppendRequest(nil, &Request{
		ID: 7, Op: OpMv, Shard: -1, Path: "/old/name", Path2: "/new/name",
		Data: []byte("x"),
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRequest(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	if _, err := DecodeRequest(append(full[:len(full):len(full)], 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: got %v, want ErrTrailing", err)
	}
}

func TestDecodeRequestOversizeLengths(t *testing.T) {
	// A path length prefix of 0xffff exceeds MaxPath.
	buf := AppendRequest(nil, &Request{ID: 1, Op: OpOpen, Path: "/x"})
	// Path prefix starts after ID(8)+Op(1)+Shard(4)+Offset(8)+Len(4)+Txn(8) = 33.
	buf[33], buf[34] = 0xff, 0xff
	if _, err := DecodeRequest(buf); err == nil {
		t.Fatal("oversize path length decoded without error")
	}
	// Declared read length beyond MaxData is rejected.
	buf2 := AppendRequest(nil, &Request{ID: 1, Op: OpRead, Len: MaxData + 1, Path: "/x"})
	if _, err := DecodeRequest(buf2); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversize read len: got %v, want ErrTooLong", err)
	}
}

func TestDecodeRequestUnknownOp(t *testing.T) {
	buf := AppendRequest(nil, &Request{ID: 1, Op: Op(200), Path: "/x"})
	if _, err := DecodeRequest(buf); err == nil {
		t.Fatal("unknown op decoded without error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var b bytes.Buffer
	payload := AppendRequest(nil, &Request{ID: 9, Op: OpSync})
	if err := WriteFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&b, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame payload mismatch")
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	// Header declaring 1GB: must be rejected before allocation.
	hdr := []byte{0x40, 0x00, 0x00, 0x00}
	if _, err := ReadFrame(bytes.NewReader(hdr), MaxFrame); !errors.Is(err, ErrFrame) {
		t.Fatalf("got %v, want ErrFrame", err)
	}
}

func TestStatusRetryable(t *testing.T) {
	if !StatusAgain.Retryable() {
		t.Fatal("StatusAgain must be retryable")
	}
	for _, s := range []Status{StatusOK, StatusNotFound, StatusClosed, StatusIO, StatusInvalid,
		StatusCrossShard, StatusNoTxn, StatusTxnLimit, StatusMoved, StatusTimeout} {
		if s.Retryable() {
			t.Fatalf("%v must not be retryable", s)
		}
	}
}

// A StatusMoved redirect carries the new primary's address verbatim in
// Msg. It must round-trip every address shape a fleet can mint — node
// names, host:port, IPv6 — up to the wire bound, and an address past
// MaxMsg must be rejected by the decoder, not truncated silently.
func TestStatusMovedRoundTrip(t *testing.T) {
	longest := string(bytes.Repeat([]byte{'a'}, MaxMsg))
	for _, addr := range []string{
		"node3",
		"127.0.0.1:8002",
		"[::1]:8002",
		"fleet-host.example.com:7979",
		"",
		longest,
	} {
		want := &Response{ID: 42, Status: StatusMoved, Size: 7, Msg: addr}
		got, err := DecodeResponse(AppendResponse(nil, want))
		if err != nil {
			t.Fatalf("decode moved(%q): %v", addr, err)
		}
		if got.Status != StatusMoved || got.Msg != addr || got.Size != want.Size || got.ID != want.ID {
			t.Fatalf("moved round trip: got %+v want %+v", got, want)
		}
	}
	// One byte past MaxMsg: the u16 prefix can express it, the decoder
	// must refuse it.
	over := AppendResponse(nil, &Response{Status: StatusMoved})
	// Msg prefix is the trailing u16; rewrite it to MaxMsg+1 and pad.
	over = over[:len(over)-2]
	over = append(over, byte((MaxMsg+1)>>8), byte((MaxMsg+1)&0xff))
	over = append(over, bytes.Repeat([]byte{'b'}, MaxMsg+1)...)
	if _, err := DecodeResponse(over); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversize moved address: got %v, want ErrTooLong", err)
	}
}

// Every defined op and status must have a name: a missing table entry
// would render as the numeric fallback and break log greppability. For an
// op the name is also the proof that opTable has a row for it, and the
// row must be one a server can act on: the facts about data ops do not
// apply to admin or transaction-control ops, only a mutation is staged,
// and nothing is true of an undefined op.
func TestNamesComplete(t *testing.T) {
	for o := OpInvalid; o < opMax; o++ {
		row := opTable[o]
		if row.name == "" || o.String() != row.name {
			t.Fatalf("op %d has no row in opTable", uint8(o))
		}
		if (row.admin || row.txnCtl) && (row.mutates || row.twoPaths || row.stageable) || row.admin && row.txnCtl {
			t.Errorf("%v: admin / txn-control rows carry no data-op facts: %+v", o, row)
		}
		if (row.stageable || row.twoPaths) && !row.mutates {
			t.Errorf("%v: staged or two-path but not a mutation: %+v", o, row)
		}
		if o.Admin() != row.admin || o.TxnControl() != row.txnCtl || o.Mutates() != row.mutates ||
			o.TwoPaths() != row.twoPaths || o.Stageable() != row.stageable {
			t.Errorf("%v: accessors disagree with the row %+v", o, row)
		}
	}
	for _, o := range []Op{OpInvalid, opMax, 255} {
		if o.Valid() || o.Admin() || o.TxnControl() || o.Mutates() || o.TwoPaths() || o.Stageable() {
			t.Errorf("op %d is undefined but the table says something of it", uint8(o))
		}
	}
	for s := StatusOK; s < statusMax; s++ {
		if int(s) >= len(statusNames) || statusNames[s] == "" {
			t.Fatalf("status %d has no name", uint8(s))
		}
	}
}
