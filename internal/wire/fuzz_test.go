package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRequest is the serving edge's safety net, mirroring
// registry.FuzzParse on the recovery edge: DecodeRequest consumes bytes
// straight off a TCP socket from an arbitrary peer and must be total —
// any input either decodes to a well-formed request or returns an
// error. It must never Go-panic, and a lying length prefix must never
// make it allocate past the frame it was handed.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []*Request{
		{ID: 1, Op: OpOpen, Shard: -1, Path: "/a"},
		{ID: 2, Op: OpRead, Shard: -1, Offset: 8192, Len: 512, Path: "/bench/k7"},
		{ID: 3, Op: OpWrite, Shard: -1, Offset: -1, Path: "/f", Data: []byte("data")},
		{ID: 4, Op: OpMv, Shard: -1, Path: "/a", Path2: "/b"},
		{ID: 5, Op: OpCrash, Shard: 3},
		{ID: 6, Op: OpTxnBegin, Shard: -1, Path: "/t"},
		{ID: 7, Op: OpWrite, Shard: -1, Txn: 1<<32 | 9, Path: "/t", Data: []byte("staged")},
		{ID: 8, Op: OpTxnCommit, Shard: -1, Txn: 1<<32 | 9},
		{ID: 9, Op: OpTxnAbort, Shard: -1, Txn: 2<<32 | 4},
		{ID: 10, Op: OpReplBatch, Shard: 2, Data: []byte("\x00\x01fleet batch payload")},
		{ID: 11, Op: OpReplPull, Shard: 2, Offset: 41},
		{ID: 12, Op: OpSnapshot, Shard: 0, Offset: 1 << 19},
		{ID: 13, Op: OpHeartbeat, Shard: -1, Data: []byte("routing table bytes")},
	} {
		f.Add(AppendRequest(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data) // must return, never panic
		// The in-place decoder is the same parser: same verdict, same
		// fields, and a Data that is a view of the input, not a copy.
		ra, erra := DecodeRequestAliased(data)
		if (err == nil) != (erra == nil) || (err != nil && err.Error() != erra.Error()) {
			t.Fatalf("copying decoder: %v; aliasing decoder: %v", err, erra)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*r, ra) {
			t.Fatalf("aliased decode %+v, copying decode %+v", ra, r)
		}
		if n := len(ra.Data); n > 0 && &ra.Data[0] != &data[len(data)-n] {
			t.Fatal("aliased Data is not a view of the input's tail")
		}
		// No over-allocation: everything the decoder materialised came
		// out of the input, so it can never exceed the input's length.
		if len(r.Path)+len(r.Path2)+len(r.Data) > len(data) {
			t.Fatalf("decoded fields total %d bytes from a %d-byte input",
				len(r.Path)+len(r.Path2)+len(r.Data), len(data))
		}
		if len(r.Path) > MaxPath || len(r.Path2) > MaxPath || len(r.Data) > MaxData {
			t.Fatalf("decoded field exceeds protocol limit: path %d path2 %d data %d",
				len(r.Path), len(r.Path2), len(r.Data))
		}
		if !r.Op.Valid() {
			t.Fatalf("decoder accepted invalid op %d", uint8(r.Op))
		}
		// A successful decode must re-encode to the identical bytes
		// (the encoding is canonical), and the input must have been
		// consumed exactly.
		if re := AppendRequest(nil, r); !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeResponse gives the client-side decoder the same guarantee.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []*Response{
		{ID: 1, Status: StatusOK, Size: 10, Data: []byte("payload")},
		{ID: 2, Status: StatusNotFound, Msg: "nope"},
		{ID: 3, Status: StatusMoved, Msg: "127.0.0.1:8002"},
		{ID: 4, Status: StatusTimeout, Msg: "drain timeout"},
		{ID: 5, Status: StatusAgain, Size: 17, Msg: "replica behind: applied 17"},
	} {
		f.Add(AppendResponse(nil, r))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x41}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data)
		if err != nil {
			return
		}
		if len(r.Data)+len(r.Msg) > len(data) {
			t.Fatalf("decoded fields total %d bytes from a %d-byte input",
				len(r.Data)+len(r.Msg), len(data))
		}
		if re := AppendResponse(nil, r); !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, re)
		}
	})
}
