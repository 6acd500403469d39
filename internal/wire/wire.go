// Package wire is riod's request/response codec: a length-prefixed
// binary framing with fixed-width headers and explicitly bounded
// variable-length fields.
//
// The format is deliberately dumb — big-endian integers, u16/u32 length
// prefixes, no compression, no versioned schema — because the decoder
// sits on the server's untrusted edge and must be total: any byte
// string either decodes to a well-formed message or returns an error.
// Every declared length is checked against both a protocol maximum and
// the bytes actually present *before* any allocation happens, so a
// hostile frame can neither panic the decoder nor make it allocate more
// than the frame it sent (see FuzzDecodeRequest).
//
// A frame on the stream is a u32 payload length followed by the
// payload. Request payloads and response payloads are distinct message
// types; the transport knows which it is expecting.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op identifies a request operation.
type Op uint8

// The wire operations. Data ops route to a shard by path hash; the two
// admin ops (OpCrash, OpWarmboot) target Request.Shard explicitly.
const (
	OpInvalid   Op = iota
	OpOpen         // ensure Path exists (create an empty file if absent)
	OpRead         // read Len bytes of Path at Offset (Len 0 = whole file)
	OpWrite        // write Data to Path at Offset (-1 = append), creating it
	OpMkdir        // create directory Path
	OpRm           // unlink file / remove empty directory Path
	OpMv           // rename Path to Path2
	OpStat         // stat Path
	OpSync         // schedule the shard's dirty buffers for write-back
	OpCrash        // admin: crash shard Request.Shard (kernel panic, no sync)
	OpWarmboot     // admin: warm-reboot shard Request.Shard
	OpTxnBegin     // open a transaction on the target shard; Response.Size returns the handle
	OpTxnCommit    // atomically apply every op staged under Request.Txn
	OpTxnAbort     // discard every op staged under Request.Txn

	// Fleet replication ops (primary <-> backup and coordinator <-> node
	// traffic; see internal/fleet). Their payloads ride in Data as
	// checksummed sub-frames with their own strict bounds, so the base
	// codec stays total over them like any other op.
	OpReplBatch // primary -> backup: apply one sequence-numbered op batch (Shard = global shard)
	OpReplPull  // backup -> primary: replay retained tail batches from Offset = seq
	OpSnapshot  // backup -> primary: fetch a shard snapshot chunk at Offset (Size = total)
	OpHeartbeat // coordinator -> node: liveness probe; Data carries the routing table
	opMax
)

// opTable is the one place an op's facts live: its name, and what every
// layer that validates, routes, stages or replicates a request needs to
// know about it. An op without a row has no name, and the servers refuse
// what the table does not describe (TestOpTable* in wire, server, fleet).
var opTable = [opMax]struct {
	name      string
	admin     bool // targets Request.Shard, not a path
	txnCtl    bool // transaction control: resolved by the staging path, never executed
	mutates   bool // changes filesystem state (a fleet primary replicates it before the ack)
	twoPaths  bool // needs Path and Path2, on one shard
	stageable bool // may carry Request.Txn: staged until commit instead of executed
}{
	OpInvalid:   {name: "invalid"},
	OpOpen:      {name: "open", mutates: true},
	OpRead:      {name: "read"},
	OpWrite:     {name: "write", mutates: true, stageable: true},
	OpMkdir:     {name: "mkdir", mutates: true, stageable: true},
	OpRm:        {name: "rm", mutates: true, stageable: true},
	OpMv:        {name: "mv", mutates: true, stageable: true, twoPaths: true},
	OpStat:      {name: "stat"},
	OpSync:      {name: "sync"},
	OpCrash:     {name: "crash", admin: true},
	OpWarmboot:  {name: "warmboot", admin: true},
	OpTxnBegin:  {name: "txn-begin", txnCtl: true},
	OpTxnCommit: {name: "txn-commit", txnCtl: true},
	OpTxnAbort:  {name: "txn-abort", txnCtl: true},
	OpReplBatch: {name: "repl-batch"},
	OpReplPull:  {name: "repl-pull"},
	OpSnapshot:  {name: "snapshot"},
	OpHeartbeat: {name: "heartbeat"},
}

func (o Op) String() string {
	if o < opMax {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// The op facts, false for an undefined op.
func (o Op) Admin() bool      { return o < opMax && opTable[o].admin }
func (o Op) TxnControl() bool { return o < opMax && opTable[o].txnCtl }
func (o Op) Mutates() bool    { return o < opMax && opTable[o].mutates }
func (o Op) TwoPaths() bool   { return o < opMax && opTable[o].twoPaths }
func (o Op) Stageable() bool  { return o < opMax && opTable[o].stageable }

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// Status is a response's outcome code. Errors are typed so clients can
// branch without parsing message strings; StatusAgain is the one
// retryable code (the shard exists but cannot serve right now).
type Status uint8

// Response statuses.
const (
	StatusOK       Status = iota
	StatusAgain           // EAGAIN: queue full or shard crashed; retry with backoff
	StatusNotFound        // no such file or directory
	StatusExists          // path already exists
	StatusIsDir           // operation needs a file, path is a directory
	StatusNotDir          // path component is not a directory
	StatusNotEmpty        // directory not empty
	StatusNoSpace         // no space / no inodes on the shard's volume
	StatusReadOnly        // shard volume degraded to read-only
	StatusInvalid         // malformed or inapplicable request
	StatusClosed          // server is draining or stopped; not retryable
	StatusIO              // other shard-side failure (see Msg)
	// StatusCrossShard: the operation names paths (or a transaction) on
	// two different shards; single-shard atomicity cannot cover it. The
	// dedicated code is the seam a future two-phase cross-shard protocol
	// plugs into — clients can distinguish "unsupported topology" from a
	// real failure.
	StatusCrossShard
	StatusNoTxn    // Request.Txn names no open transaction on its shard
	StatusTxnLimit // transaction table or staged-op budget exhausted
	// StatusMoved: the receiver no longer serves the request's shard —
	// the fleet coordinator promoted a different primary. Msg carries the
	// new primary's address verbatim (at most MaxMsg bytes); clients
	// re-route and re-send. Also fences a deposed primary's replication
	// frames: a backup that has seen a newer epoch refuses old-epoch
	// batches with this status.
	StatusMoved
	// StatusTimeout: the server gave up waiting — a bounded drain expired
	// at shutdown, or a peer deadline fired. Not retryable against the
	// same endpoint; the request's fate on the shard is unknown.
	StatusTimeout
	statusMax
)

var statusNames = [...]string{
	StatusOK: "ok", StatusAgain: "again", StatusNotFound: "not-found",
	StatusExists: "exists", StatusIsDir: "is-dir", StatusNotDir: "not-dir",
	StatusNotEmpty: "not-empty", StatusNoSpace: "no-space",
	StatusReadOnly: "read-only", StatusInvalid: "invalid",
	StatusClosed: "closed", StatusIO: "io-error",
	StatusCrossShard: "cross-shard", StatusNoTxn: "no-txn",
	StatusTxnLimit: "txn-limit", StatusMoved: "moved",
	StatusTimeout: "timeout",
}

func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Retryable reports whether the request may succeed if simply re-sent
// after a backoff (the EAGAIN discipline riod's clients follow).
func (s Status) Retryable() bool { return s == StatusAgain }

// Protocol limits. DecodeRequest/DecodeResponse reject any declared
// length beyond these before allocating, so a frame can never make the
// decoder hold more memory than MaxFrame.
const (
	MaxPath  = 4096    // bytes per path
	MaxData  = 1 << 20 // bytes per read or write payload
	MaxMsg   = 4096    // bytes per response message
	MaxFrame = MaxData + 2*MaxPath + MaxMsg + 64
)

// Response flags (stat results).
const (
	FlagDir     uint8 = 1 << 0
	FlagSymlink uint8 = 1 << 1
)

// Request is one client operation.
type Request struct {
	ID     uint64 // echoed verbatim in the response
	Op     Op
	Shard  int32  // admin-op target; -1 (route by path) for data ops
	Offset int64  // read/write offset; -1 on write = append
	Len    uint32 // read length; 0 = whole file (capped at MaxData)
	// Txn is a transaction handle from OpTxnBegin. Zero means no
	// transaction. On a write/mkdir/rm/mv it stages the op instead of
	// executing it; OpTxnCommit/OpTxnAbort name the transaction to
	// resolve. The high 32 bits carry the owning shard.
	Txn   uint64
	Path  string
	Path2 string // mv destination
	Data  []byte // write payload
}

// Response is the outcome of one request.
type Response struct {
	ID     uint64
	Status Status
	Flags  uint8  // stat: FlagDir / FlagSymlink
	Size   int64  // stat size, bytes written, or file size on read
	Data   []byte // read payload
	Msg    string // human-readable error detail (empty on StatusOK)
}

// Decode errors.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrTooLong   = errors.New("wire: declared length exceeds protocol limit")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
	ErrFrame     = errors.New("wire: frame exceeds maximum size")
)

// Fixed header bytes of each message type (everything except the three
// variable-length fields and their length prefixes).
const (
	requestFixed  = 8 + 1 + 4 + 8 + 4 + 8 // ID, Op, Shard, Offset, Len, Txn
	responseFixed = 8 + 1 + 1 + 8         // ID, Status, Flags, Size
)

// RequestSize returns the exact encoded size of r, so encoders can
// reserve capacity once instead of growing through append.
func RequestSize(r *Request) int {
	return requestFixed + 2 + len(r.Path) + 2 + len(r.Path2) + 4 + len(r.Data)
}

// ResponseSize returns the exact encoded size of r.
func ResponseSize(r *Response) int {
	return responseFixed + 4 + len(r.Data) + 2 + len(r.Msg)
}

// grow returns dst with room for at least n more bytes, reallocating at
// most once (append's doubling can reallocate twice for a cold buffer
// growing past a megabyte payload).
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// AppendRequest appends r's encoding to dst and returns the result.
func AppendRequest(dst []byte, r *Request) []byte {
	dst = grow(dst, RequestSize(r))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Shard))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Offset))
	dst = binary.BigEndian.AppendUint32(dst, r.Len)
	dst = binary.BigEndian.AppendUint64(dst, r.Txn)
	dst = appendString16(dst, r.Path)
	dst = appendString16(dst, r.Path2)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Data)))
	return append(dst, r.Data...)
}

// AppendRequestFrame appends a complete wire frame — u32 length prefix
// plus r's encoding — to dst, so a client on a raw connection sends a
// request as one write (WriteFrame issues two).
func AppendRequestFrame(dst []byte, r *Request) []byte {
	size := RequestSize(r)
	dst = grow(dst, 4+size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	return AppendRequest(dst, r)
}

// DecodeRequest decodes exactly one request from buf. The entire buffer
// must be consumed; trailing bytes are an error. Data is copied out of
// buf, so the caller may reuse buf and retain the request.
func DecodeRequest(buf []byte) (*Request, error) {
	r, err := decodeRequest(buf, false)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeRequestAliased is DecodeRequest without the payload copy and
// without the heap: the Request is returned by value, and its Data is a
// sub-slice of buf (every other field is a value), so the request is
// valid only until buf is reused. The TCP server decodes pooled frames
// with it and hands the value to its shard inside the task; the bufalias
// analyzer tracks the alias.
func DecodeRequestAliased(buf []byte) (Request, error) { return decodeRequest(buf, true) }

func decodeRequest(buf []byte, alias bool) (Request, error) {
	c := Cursor{Buf: buf}
	var r Request
	r.ID = c.U64()
	r.Op = Op(c.U8())
	r.Shard = int32(c.U32())
	r.Offset = int64(c.U64())
	r.Len = c.U32()
	r.Txn = c.U64()
	r.Path = c.Str16(MaxPath)
	r.Path2 = c.Str16(MaxPath)
	r.Data = c.Bytes32(MaxData, alias)
	if err := c.Finish(); err != nil {
		return Request{}, err
	}
	if !r.Op.Valid() {
		return Request{}, fmt.Errorf("wire: unknown op %d", uint8(r.Op))
	}
	if r.Len > MaxData {
		return Request{}, fmt.Errorf("wire: read length %d exceeds %d: %w", r.Len, MaxData, ErrTooLong)
	}
	return r, nil
}

// AppendResponse appends r's encoding to dst and returns the result.
func AppendResponse(dst []byte, r *Response) []byte {
	dst = grow(dst, ResponseSize(r))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Status), r.Flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Size))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Data)))
	dst = append(dst, r.Data...)
	return appendString16(dst, r.Msg)
}

// AppendResponseFrame appends a complete wire frame — u32 length prefix
// plus r's encoding — to dst, growing dst at most once. The batching
// writer uses it to pack many responses into one buffer for a single
// scatter-gather write.
func AppendResponseFrame(dst []byte, r *Response) []byte {
	size := ResponseSize(r)
	dst = grow(dst, 4+size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	return AppendResponse(dst, r)
}

// ReserveResponseFrame appends a response frame for r whose data region
// is left unwritten: the frame declares dataLen data bytes (r.Data must
// be empty — its bytes do not exist yet) and the returned offset names
// the region dst[off:off+dataLen] the caller fills afterwards. Because
// Data precedes Msg in the encoding, the rest of the frame is already
// complete, so a read can serialize straight from a cache frame into
// the wire buffer with no intermediate copy. dataLen must be within
// MaxData (enforced: this is the serving path's own frame assembly, and
// an oversized region would build an undecodable frame).
func ReserveResponseFrame(dst []byte, r *Response, dataLen int) (buf []byte, off int) {
	if dataLen < 0 || dataLen > MaxData {
		panic(fmt.Sprintf("wire: reserve %d data bytes outside [0, MaxData]", dataLen))
	}
	size := responseFixed + 4 + dataLen + 2 + len(r.Msg)
	dst = grow(dst, 4+size)
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = append(dst, byte(r.Status), r.Flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Size))
	dst = binary.BigEndian.AppendUint32(dst, uint32(dataLen))
	off = len(dst)
	dst = dst[:off+dataLen]
	return appendString16(dst, r.Msg), off
}

// DecodeResponse decodes exactly one response from buf.
func DecodeResponse(buf []byte) (*Response, error) {
	c := Cursor{Buf: buf}
	var r Response
	r.ID = c.U64()
	r.Status = Status(c.U8())
	r.Flags = c.U8()
	r.Size = int64(c.U64())
	r.Data = c.Bytes32(MaxData, false)
	r.Msg = c.Str16(MaxMsg)
	if err := c.Finish(); err != nil {
		return nil, err
	}
	if r.Status >= statusMax {
		return nil, fmt.Errorf("wire: unknown status %d", uint8(r.Status))
	}
	return &r, nil
}

// frameHdr is the size of a frame's u32 length prefix.
const frameHdr = 4

// WriteFrame writes a u32 length prefix followed by payload. Into a
// *bufio.Writer the prefix is built in the writer's own free space
// (AvailableBuffer), so framing allocates nothing; any other writer gets
// the prefix from a heap array, since an interface call makes it escape.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrame
	}
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= frameHdr {
		if bw.Available() < frameHdr {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if _, err := bw.Write(binary.BigEndian.AppendUint32(bw.AvailableBuffer(), uint32(len(payload)))); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	var hdr [frameHdr]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into a fresh buffer. A
// declared length beyond max is rejected before the payload is
// allocated, bounding what a hostile peer can make the reader hold.
func ReadFrame(r io.Reader, max int) ([]byte, error) { return ReadFrameInto(r, max, nil) }

// ReadFrameInto is ReadFrame into dst's capacity (its length is
// ignored): the payload lands in dst, and only a payload larger than
// cap(dst) allocates — its declared size, after the max check. The
// payload aliases dst unless it had to grow; on error dst stays the
// caller's. From a *bufio.Reader the prefix is peeked in the reader's
// buffer; from any other reader it is read into dst, or into a 4-byte
// heap header when dst has no room for one. Either way a stream that
// ends before the first prefix byte answers io.EOF, and one that ends
// inside the prefix or the payload io.ErrUnexpectedEOF.
func ReadFrameInto(r io.Reader, max int, dst []byte) ([]byte, error) {
	buf := dst[:cap(dst)]
	var n uint32
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(frameHdr)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr)
		br.Discard(frameHdr)
	} else {
		hdr := buf
		if len(hdr) < frameHdr {
			hdr = make([]byte, frameHdr)
		}
		if _, err := io.ReadFull(r, hdr[:frameHdr]); err != nil {
			return nil, err
		}
		n = binary.BigEndian.Uint32(hdr)
	}
	if int64(n) > int64(max) {
		return nil, ErrFrame
	}
	if int64(n) > int64(len(buf)) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

func appendString16(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// Cursor is a bounds-checked sequential reader over Buf, the one decoder
// of this module's big-endian formats (wire messages, txn commit records,
// the fleet's frames). The first failure sticks in Err; every later read
// returns zero values.
type Cursor struct {
	Buf []byte
	Off int
	Err error
}

// Take returns the next n bytes as a view of Buf, or nil (and a sticky
// ErrTruncated) when fewer remain.
func (c *Cursor) Take(n int) []byte {
	if c.Err != nil {
		return nil
	}
	if n < 0 || c.Off+n > len(c.Buf) || c.Off+n < c.Off {
		c.Err = ErrTruncated
		return nil
	}
	b := c.Buf[c.Off : c.Off+n]
	c.Off += n
	return b
}

func (c *Cursor) U8() uint8 {
	b := c.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *Cursor) U16() uint16 {
	b := c.Take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *Cursor) U32() uint32 {
	b := c.Take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *Cursor) U64() uint64 {
	b := c.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Str16 reads a u16-prefixed string of at most max bytes. The length is
// validated against the remaining buffer before the string is
// materialised, so a lying prefix cannot over-allocate.
func (c *Cursor) Str16(max int) string {
	b := c.Take(2)
	if b == nil {
		return ""
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > max {
		if c.Err == nil {
			c.Err = ErrTooLong
		}
		return ""
	}
	s := c.Take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Bytes32 reads a u32-prefixed byte slice of at most max bytes: copied
// out of the frame so the caller may retain it, or — alias — a view of
// the frame itself, valid only as long as the frame is.
func (c *Cursor) Bytes32(max int, alias bool) []byte {
	b := c.Take(4)
	if b == nil {
		return nil
	}
	n := int64(binary.BigEndian.Uint32(b))
	if n > int64(max) {
		if c.Err == nil {
			c.Err = ErrTooLong
		}
		return nil
	}
	p := c.Take(int(n))
	if p == nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if alias {
		return p
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Finish reports the sticky error, or ErrTrailing when bytes remain.
func (c *Cursor) Finish() error {
	if c.Err != nil {
		return c.Err
	}
	if c.Off != len(c.Buf) {
		return ErrTrailing
	}
	return nil
}
