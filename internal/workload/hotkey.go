package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/sim"
)

// HotKey is a key-value update stream with zipfian popularity and
// flash crowds: each key is one small framed file under /hot, the key
// choice comes from the shared KeyCDF, and every EpochLen steps the
// popularity ranking is re-rooted at a new hot key (a pure function of
// (seed, epoch) via sim.Mix) — the "everyone suddenly hammers one new
// object" pattern of cache front-ends. The hottest keys are rewritten
// so often that their blocks essentially live dirty in the file cache,
// which makes this the sharpest probe of write-back loss: without
// protection a crash discards the most valuable keys first.
//
// Key frame: magic u64 | key u64 | ver u64 | plen u32 | payload | cksum u64
// Payload is a pure function of (seed, key, ver), so Check can date any
// decodable frame. A frame at an older version than acked is Lost; a
// frame that decodes at no version is a Corruption.
type HotKey struct {
	// Keys is the key-space size; Skew the zipf exponent; EpochLen the
	// steps between flash crowds.
	Keys     int
	EpochLen int
	// WriteThrough fsyncs every update.
	WriteThrough bool

	seed uint64
	rng  *sim.Rand
	cdf  KeyCDF

	ver   []uint64 // acked version per key; 0 = never written
	steps int

	inFlight Op

	// ReadMismatches counts online read-side mismatches.
	ReadMismatches int
}

const (
	hkMagic  = 0x52696f486f744b65 // "RioHotKe"
	hkHeader = 8 + 8 + 8 + 4
)

// NewHotKey returns the workload over `keys` keys.
func NewHotKey(seed uint64, keys int, skew float64, epochLen int) *HotKey {
	if keys < 1 {
		keys = 64
	}
	if epochLen < 1 {
		epochLen = 200
	}
	return &HotKey{
		Keys:     keys,
		EpochLen: epochLen,
		seed:     seed,
		rng:      sim.NewRand(sim.Mix(seed, 0x407CE77E)),
		cdf:      NewKeyCDF(keys, skew),
		ver:      make([]uint64, keys),
	}
}

// Name implements Workload.
func (hk *HotKey) Name() string { return "hotkey" }

func (hk *HotKey) path(k int) string { return fmt.Sprintf("/hot/k%04d", k) }

// plen is the value length for key k — constant per key so rewrites
// are exactly in place.
func (hk *HotKey) plen(k int) int {
	return 64 + int(sim.Mix(hk.seed, uint64(k), 0x1E4)%768)
}

// pickKey maps the CDF's popularity rank onto a concrete key, rotated
// by the current epoch's flash-crowd offset: rank 0 lands on a
// different key every epoch, so the hot set moves abruptly.
func (hk *HotKey) pickKey() int {
	rank := hk.cdf.Pick(hk.rng)
	epoch := uint64(hk.steps / hk.EpochLen)
	shift := int(sim.Mix(hk.seed, 0xF1A54, epoch) % uint64(hk.Keys))
	return (rank + shift) % hk.Keys
}

// frame builds the key image at version ver.
func (hk *HotKey) frame(k int, ver uint64) []byte {
	p := kernel.FillBytes(hk.plen(k), sim.Mix(hk.seed, uint64(k), ver, 0xB0D4)|1)
	buf := make([]byte, 0, hkHeader+len(p)+8)
	buf = binary.BigEndian.AppendUint64(buf, hkMagic)
	buf = binary.BigEndian.AppendUint64(buf, uint64(k))
	buf = binary.BigEndian.AppendUint64(buf, ver)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
	buf = append(buf, p...)
	return binary.BigEndian.AppendUint64(buf, sim.FNV1a64(buf[8:]))
}

// Setup creates /hot.
func (hk *HotKey) Setup(fsys *fs.FS) error { return mkdirs(fsys, "/hot") }

// Step updates or reads one popularity-picked key.
func (hk *HotKey) Step(fsys *fs.FS) error {
	hk.steps++
	k := hk.pickKey()
	if hk.rng.Float64() < 0.6 || hk.ver[k] == 0 {
		return hk.doUpdate(fsys, k)
	}
	return hk.doRead(fsys, k)
}

// doUpdate rewrites key k at its next version.
func (hk *HotKey) doUpdate(fsys *fs.FS, k int) error {
	ver := hk.ver[k] + 1
	op := Op{Kind: OpPut, Path: hk.path(k), Data: hk.frame(k, ver), Sync: hk.WriteThrough}
	if _, err := do(fsys, &hk.inFlight, op); err != nil {
		return err
	}
	hk.ver[k] = ver
	return nil
}

// doRead reads key k and verifies it online against the acked version.
// The read is the op in flight: it masks nothing, so a failed update's
// record does not outlive it.
func (hk *HotKey) doRead(fsys *fs.FS, k int) error {
	want := hk.frame(k, hk.ver[k])
	r, err := do(fsys, &hk.inFlight, Op{Kind: OpReadN, Path: hk.path(k), N: len(want)})
	if err != nil {
		return err
	}
	if !bytes.Equal(r.Data, want) {
		hk.ReadMismatches++
	}
	return nil
}

// Check implements Workload: every written key must decode at its
// acked version (or the in-flight one, one past it), byte-exact.
func (hk *HotKey) Check(fsys *fs.FS) Verdict {
	var v Verdict
	fl := hk.inFlight
	for k := 0; k < hk.Keys; k++ {
		keyInFlight := fl.Kind == OpPut && fl.Path == hk.path(k)
		if hk.ver[k] == 0 && !keyInFlight {
			continue
		}
		v.Checked++
		ver, derr := hk.readKey(fsys, k)
		switch {
		case derr != "":
			if keyInFlight && hk.ver[k] == 0 {
				continue // first write was in flight; any wreckage is masked
			}
			if keyInFlight && derr == "half-written frame" {
				continue // rewrite caught mid-frame
			}
			v.Corruptions = append(v.Corruptions, Corruption{hk.path(k), derr})
			if hk.ver[k] > 0 && (derr == "unreadable" || derr == "missing") {
				v.Lost++
			}
		case ver == hk.ver[k]:
			// acked state intact
		case keyInFlight && ver == hk.ver[k]+1:
			// in-flight update landed whole; fine
		case ver < hk.ver[k]:
			v.Lost++
			v.Corruptions = append(v.Corruptions, Corruption{hk.path(k),
				fmt.Sprintf("acked update lost: at v%d, acked v%d", ver, hk.ver[k])})
		default:
			v.Corruptions = append(v.Corruptions, Corruption{hk.path(k),
				fmt.Sprintf("phantom version v%d (acked v%d)", ver, hk.ver[k])})
		}
	}
	return v
}

// readKey decodes key k's frame: returns its version, or a non-empty
// failure detail ("missing", "unreadable", "half-written frame" for a
// frame that is internally consistent at no version, etc).
func (hk *HotKey) readKey(fsys *fs.FS, k int) (uint64, string) {
	want := hkHeader + hk.plen(k) + 8
	b, err := fsys.ReadFile(hk.path(k))
	switch {
	case err == fs.ErrNotFound:
		return 0, "missing"
	case errors.As(err, new(*fs.SizeError)):
		return 0, "half-written frame"
	case err != nil:
		return 0, "unreadable"
	}
	if len(b) != want || binary.BigEndian.Uint64(b) != hkMagic ||
		binary.BigEndian.Uint64(b[8:]) != uint64(k) ||
		binary.BigEndian.Uint64(b[want-8:]) != sim.FNV1a64(b[8:want-8]) {
		return 0, "half-written frame"
	}
	ver := binary.BigEndian.Uint64(b[16:])
	p := kernel.FillBytes(hk.plen(k), sim.Mix(hk.seed, uint64(k), ver, 0xB0D4)|1)
	for j := range p {
		if b[hkHeader+j] != p[j] {
			return 0, fmt.Sprintf("payload disagrees with oracle for v%d", ver)
		}
	}
	return ver, ""
}
