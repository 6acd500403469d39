// Fixture: every sanctioned-window violation bufalias must catch —
// pooled buffers escaping to fields, globals, channels, and goroutines,
// leaks through helper calls (the interprocedural cases), use after
// release, and an Into-style function that retains its destination.
package kernelpool

// kern mimics internal/kernel's bulk scratch.
type kern struct {
	bulkBuf []byte
}

func (k *kern) scratchBytes(n int) []byte { return k.bulkBuf[:n] }

// fsT mimics internal/fs's block pool.
type fsT struct {
	blockPool [][]byte
	readBuf   []byte
}

func (f *fsT) getPooledBlock() []byte {
	if n := len(f.blockPool); n > 0 {
		b := f.blockPool[n-1]
		f.blockPool = f.blockPool[:n-1]
		return b
	}
	return make([]byte, 512)
}

func (f *fsT) putPooledBlock(b []byte) {
	if len(f.blockPool) < 64 {
		f.blockPool = append(f.blockPool, b)
	}
}

// readBlock hands out the shared read buffer: a transitive pool source.
func (f *fsT) readBlock() []byte { return f.readBuf }

type srv struct {
	k    *kern
	held []byte
}

var captured [][]byte

// keepField stores a scratch alias in a field that outlives the window.
func (s *srv) keepField() {
	s.held = s.k.scratchBytes(8) // want bufalias "stored in s.held"
}

// keepGlobal appends a scratch alias to a package-level slice.
func keepGlobal(k *kern) {
	captured = append(captured, k.scratchBytes(4)) // want bufalias "stored in package-level captured"
}

// crossGoroutine hands a pooled block to a goroutine that will read it
// after the pool reuses it.
func crossGoroutine(f *fsT, sink func([]byte)) {
	b := f.getPooledBlock()
	go sink(b) // want bufalias "handed to a goroutine"
}

// crossChannel sends the shared read buffer to another goroutine.
func crossChannel(f *fsT, ch chan []byte) {
	ch <- f.readBlock() // want bufalias "sent on a channel"
}

// retain is a helper that stores its argument; passing it a pooled
// buffer leaks through the call (seen via retain's summary).
func retain(s *srv, b []byte) {
	s.held = b
}

func leakThroughCall(s *srv, k *kern) {
	retain(s, k.scratchBytes(16)) // want bufalias "passed to retain, which retains it"
}

// wrap returns a pooled alias; the leak is two calls from the pool.
func wrap(k *kern) []byte { return k.scratchBytes(32) }

func leakTransitive(s *srv, k *kern) {
	s.held = wrap(k) // want bufalias "stored in s.held"
}

// useAfterPut reads a block after returning it to the pool.
func useAfterPut(f *fsT) byte {
	b := f.getPooledBlock()
	b[0] = 1
	f.putPooledBlock(b)
	return b[0] // want bufalias "used after being released to the pool"
}

// cacheT mimics internal/cache; ReadInto is on the zero-copy contract
// surface and must never retain dst.
type cacheT struct {
	data []byte
	last []byte
}

func (c *cacheT) ReadInto(off int, dst []byte) { // want bufalias "ReadInto must not retain its destination buffer"
	copy(dst, c.data[off:])
	c.last = dst
}

// framePoolT mimics internal/server's wire-frame pool for the zero-copy
// read path.
type framePoolT struct {
	frameBufs [][]byte
}

func (p *framePoolT) get() []byte {
	if n := len(p.frameBufs); n > 0 {
		b := p.frameBufs[n-1]
		p.frameBufs = p.frameBufs[:n-1]
		return b
	}
	return make([]byte, 0, 4096)
}

func (p *framePoolT) putFrameBuf(b []byte) {
	if len(p.frameBufs) < 64 {
		p.frameBufs = append(p.frameBufs, b[:0])
	}
}

// frameUseAfterRelease writes a response frame, releases it, then reads
// the header back out of a buffer the pool may already have reissued.
func frameUseAfterRelease(p *framePoolT) byte {
	frame := p.get()
	frame = append(frame, 0, 0, 0, 1)
	p.putFrameBuf(frame)
	return frame[0] // want bufalias "used after being released to the pool"
}

// frameKeptOnConn parks a pooled frame in a connection struct that
// outlives the serve window.
type connT struct {
	lastFrame []byte
}

func (c *connT) frameKeptOnConn(p *framePoolT) {
	c.lastFrame = p.get() // want bufalias "stored in c.lastFrame"
}

// ReadDirect is on the zero-copy contract surface: retaining dst breaks
// every caller that passes a pooled response frame.
func (c *cacheT) ReadDirect(off int, dst []byte) { // want bufalias "ReadDirect must not retain its destination buffer"
	copy(dst, c.data[off:])
	c.last = dst
}

// requestT / DecodeRequestAliased mimic internal/wire's in-place request
// decoder: the parse runs through a cursor's methods, which the taint
// walk does not follow, so bufalias knows the alias by name.
type requestT struct {
	Path string
	Data []byte
}

type cursorT struct {
	buf []byte
	off int
}

func (c *cursorT) rest() []byte { return c.buf[c.off:] }

func DecodeRequestAliased(buf []byte) *requestT {
	c := cursorT{buf: buf}
	return &requestT{Data: c.rest()}
}

// opT / txnT mimic internal/server's transaction staging: staged ops sit
// in ops until commit, long after the batch that carried them ended.
type opT struct {
	Path string
	Data []byte
}

type txnT struct {
	ops []opT
}

func stagedOp(req *requestT) opT { return opT{Path: req.Path, Data: req.Data} }

// stageAliased is the seeded bug: a request decoded in place from a
// pooled frame is staged without copying its payload, so the transaction
// holds bytes the pool hands to the next request on the wire.
func stageAliased(p *framePoolT, tx *txnT) {
	frame := p.get()
	req := DecodeRequestAliased(frame)
	op := stagedOp(req)
	tx.ops = append(tx.ops, op) // want bufalias "stored in tx.ops"
	p.putFrameBuf(frame)
}

// mountT mimics internal/fs's per-role image scratch: image fills the
// scratch it is handed from the cached frame and returns it, and the
// view is valid until the same scratch is next filled.
type mountT struct {
	inoBuf []byte
	indBuf []byte
	dirBuf []byte
	frame  []byte
	kept   []byte
}

func (m *mountT) image(scratch *[]byte) []byte {
	if *scratch == nil {
		*scratch = make([]byte, 512)
	}
	copy(*scratch, m.frame)
	return *scratch
}

func (m *mountT) metaUpdate(img []byte) { copy(m.frame, img) }

// putInode is the role that owns inoBuf: take, edit, install.
func (m *mountT) putInode(v byte) {
	img := m.image(&m.inoBuf)
	img[0] = v
	m.metaUpdate(img)
}

// growFile reaches putInode two calls down.
func (m *mountT) growFile() { m.putInode(9) }

// heldAcrossPutInode reads an inode-block image after the next putInode
// has refilled the scratch it lives in.
func (m *mountT) heldAcrossPutInode() byte {
	img := m.image(&m.inoBuf)
	m.putInode(1)
	return img[0] // want bufalias "img used after putInode refilled its buffer"
}

// heldAcrossLoop takes the image once and walks it while each iteration
// refills the same scratch: the second iteration reads the first's bytes.
func (m *mountT) heldAcrossLoop() int {
	img := m.image(&m.inoBuf)
	total := 0
	for i := 0; i < 4; i++ {
		total += int(img[i]) // want bufalias "img used after growFile refilled its buffer"
		m.growFile()
	}
	return total
}

// keptImage parks an image in a field that outlives every refill.
func (m *mountT) keptImage() {
	m.kept = m.image(&m.inoBuf) // want bufalias "stored in m.kept"
}

// direntViewT / dirScan mimic internal/fs's directory scan: each live slot
// of the directory image is handed to the callback as a view whose name
// bytes alias dirBuf, valid for that one call.
type direntViewT struct {
	ino  uint32
	name []byte
}

func (m *mountT) dirBlock() []byte { return m.image(&m.dirBuf) }

func (m *mountT) dirScan(fn func(d direntViewT, slot int) bool) {
	for blk := 0; blk < 2; blk++ {
		img := m.dirBlock()
		for s := 0; s+64 <= len(img); s += 64 {
			if img[s] != 0 && fn(direntViewT{ino: uint32(img[s]), name: img[s+8 : s+16]}, s) {
				return
			}
		}
	}
}

// lookup is itself a scan: calling it re-images dirBuf.
func (m *mountT) lookup(name string) uint32 {
	var found uint32
	m.dirScan(func(d direntViewT, _ int) bool {
		if string(d.name) == name {
			found = d.ino
		}
		return found != 0
	})
	return found
}

// lastName keeps the name bytes of the last entry in a variable of the
// enclosing function: the scan's next block overwrites them.
func (m *mountT) lastName() string {
	var last []byte
	m.dirScan(func(d direntViewT, _ int) bool {
		last = d.name // want bufalias "stored in last, which outlives the callback it was handed to"
		return false
	})
	return string(last)
}

// allNames collects views where it means to collect names.
func (m *mountT) allNames() int {
	var names [][]byte
	m.dirScan(func(d direntViewT, _ int) bool {
		names = append(names, d.name) // want bufalias "stored in names, which outlives the callback it was handed to"
		return false
	})
	return len(names)
}

// linkedTwice looks each entry's name up again — a nested scan that
// re-images dirBuf — and then reads the view it was handed.
func (m *mountT) linkedTwice() bool {
	twice := false
	m.dirScan(func(d direntViewT, _ int) bool {
		other := m.lookup("alias")
		twice = other == d.ino // want bufalias "d used after lookup refilled its buffer"
		return twice
	})
	return twice
}
