// Fixture: the sanctioned uses bufalias must NOT flag — working on a
// pooled buffer inside its window, copying the bytes out, propagating
// the window by returning the alias, releasing a block exactly once,
// an Into-style function that only fills its destination, and an
// annotated custody transfer.
package kernelpool

type kern struct {
	bulkBuf []byte
}

func (k *kern) scratchBytes(n int) []byte { return k.bulkBuf[:n] }

type fsT struct {
	blockPool [][]byte
	pending   [][]byte
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

// sumInWindow uses the scratch strictly inside its window.
func sumInWindow(k *kern) int {
	b := k.scratchBytes(8)
	total := 0
	for _, v := range b {
		total += int(v)
	}
	return total
}

type srv struct {
	held []byte
}

// copyOut keeps bytes, not the alias: storing the copy is fine.
func copyOut(s *srv, k *kern) {
	b := k.scratchBytes(8)
	cp := make([]byte, len(b))
	copy(cp, b)
	s.held = cp
}

// wrap may return the alias: that propagates the window to the caller,
// and the caller is tracked in turn.
func wrap(k *kern) []byte { return k.scratchBytes(32) }

// useWrapped consumes the propagated alias inside the window.
func useWrapped(k *kern) byte {
	return wrap(k)[0]
}

// fillOnly writes into its argument without retaining it, so callers
// may hand it pooled buffers.
func fillOnly(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// releaseOnce uses a block, releases it, and never touches it again.
func releaseOnce(f *fsT) {
	b := f.getPooledBlock()
	fillOnly(b)
	f.putPooledBlock(b)
}

// rebindAfterPut releases a block and rebinds the name to fresh memory:
// the released alias is gone, so later uses are of the new buffer.
func rebindAfterPut(f *fsT) byte {
	b := f.getPooledBlock()
	f.putPooledBlock(b)
	b = make([]byte, 1)
	return b[0]
}

// queueOwned models the fs async-write queue: custody of the block
// moves to pending until a drain releases it, annotated as sanctioned.
func (f *fsT) queueOwned() {
	cp := f.getPooledBlock()
	//riolint:bufalias fixture custody transfer: pending owns cp until drained
	f.pending = append(f.pending, cp)
}

type cacheT struct {
	data []byte
}

// ReadInto fills dst and forgets it: the zero-copy contract holds.
func (c *cacheT) ReadInto(off int, dst []byte) {
	copy(dst, c.data[off:])
}

// framePoolT mimics internal/server's wire-frame pool.
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

// serveFrame is the sanctioned frame lifecycle: get, fill via the
// zero-copy contract surface, return the alias (the window propagates
// to the caller, who is tracked in turn).
func serveFrame(p *framePoolT, c *cacheT) []byte {
	frame := p.get()
	frame = append(frame, make([]byte, 16)...)
	c.ReadDirect(0, frame[4:12])
	return frame
}

// releaseFrameOnce fills a frame, releases it exactly once, never
// touches it again.
func releaseFrameOnce(p *framePoolT, c *cacheT) {
	frame := serveFrame(p, c)
	p.putFrameBuf(frame)
}

// ReadDirect fills dst and forgets it: the zero-copy contract holds.
func (c *cacheT) ReadDirect(off int, dst []byte) {
	copy(dst, c.data[off:])
}

// requestT / DecodeRequestAliased mimic internal/wire's in-place request
// decoder.
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

type opT struct {
	Path string
	Data []byte
}

type txnT struct {
	ops []opT
}

// stageCopied is the sanctioned staging of a request decoded in place:
// the payload is copied at the retention point, the path is a string
// (a value, not an alias), and the frame goes back to the pool.
func stageCopied(p *framePoolT, tx *txnT) {
	frame := p.get()
	req := DecodeRequestAliased(frame)
	op := opT{Path: req.Path, Data: append([]byte(nil), req.Data...)}
	tx.ops = append(tx.ops, op)
	p.putFrameBuf(frame)
}

// mountT mimics internal/fs's per-role image scratch.
type mountT struct {
	inoBuf []byte
	indBuf []byte
	dirBuf []byte
	frame  []byte
}

func (m *mountT) image(scratch *[]byte) []byte {
	if *scratch == nil {
		*scratch = make([]byte, 512)
	}
	copy(*scratch, m.frame)
	return *scratch
}

func (m *mountT) metaUpdate(img []byte) { copy(m.frame, img) }

// putInode is the take-edit-metaUpdate shape: the image is taken, edited
// and installed before anything can fill inoBuf again.
func (m *mountT) putInode(v byte) {
	img := m.image(&m.inoBuf)
	img[0] = v
	m.metaUpdate(img)
}

// nestedRoles holds an indirect-block image across a putInode: the roles
// nest, each on its own scratch, so the outer image stays valid.
func (m *mountT) nestedRoles() byte {
	img := m.image(&m.indBuf)
	m.putInode(img[1])
	return img[0]
}

// retake rebinds the local to a fresh image after the refill: later
// uses are of the new view.
func (m *mountT) retake() byte {
	img := m.image(&m.inoBuf)
	first := img[0]
	m.putInode(first)
	img = m.image(&m.inoBuf)
	return img[0]
}

// direntViewT / dirScan mimic internal/fs's directory scan: the callback
// gets a view whose name bytes alias dirBuf, valid for that one call.
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

// lookup compares the name in place and keeps only the inode number.
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

// readDir keeps names: string(d.name) is the copy, taken before anything
// can image another directory block, and what crosses the nested scan is
// the copy and a number.
func (m *mountT) readDir() []string {
	var names []string
	m.dirScan(func(d direntViewT, _ int) bool {
		name, ino := string(d.name), d.ino
		if m.lookup("alias") != ino {
			names = append(names, name)
		}
		return false
	})
	return names
}
