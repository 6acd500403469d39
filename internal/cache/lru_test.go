package cache

import (
	"container/list"
	"fmt"
	"runtime"
	"testing"

	"rio/internal/sim"
)

// refKey names a cached block in the reference LRU: a metadata block
// (kind Meta, block) or a UBC page (kind Data, ino, fileBlock).
type refKey struct {
	kind  Kind
	block int64
	ino   uint32
	fb    int64
}

func keyOf(b *Buf) refKey {
	if b.Kind == Meta {
		return refKey{kind: Meta, block: b.Block}
	}
	return refKey{kind: Data, ino: b.Ino, fb: b.FileBlock}
}

// refLRU is the container/list recency order the intrusive lists
// replaced, one per pool: front is the most recently used, back the next
// victim. dirty mirrors Buf.Dirty.
type refLRU struct {
	lists [2]*list.List
	at    map[refKey]*list.Element
	dirty map[refKey]bool
}

func newRefLRU() *refLRU {
	return &refLRU{lists: [2]*list.List{list.New(), list.New()},
		at: make(map[refKey]*list.Element), dirty: make(map[refKey]bool)}
}

// insert makes k the most recent block of its pool and returns the
// victim the pool evicts first, if it is at capCount.
func (r *refLRU) insert(k refKey, capCount int) (victim refKey, evicted bool) {
	l := r.lists[k.kind]
	if l.Len() >= capCount {
		victim, evicted = l.Back().Value.(refKey), true
		r.remove(victim)
	}
	r.at[k] = l.PushFront(k)
	return victim, evicted
}

func (r *refLRU) touch(k refKey) { r.lists[k.kind].MoveToFront(r.at[k]) }

func (r *refLRU) remove(k refKey) {
	r.lists[k.kind].Remove(r.at[k])
	delete(r.at, k)
	delete(r.dirty, k)
}

// all is the pool front to back (Cache.All's order).
func (r *refLRU) all(kind Kind) []refKey {
	var out []refKey
	for e := r.lists[kind].Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(refKey))
	}
	return out
}

// dirtyBufs is the pool's dirty blocks back to front (Cache.DirtyBufs).
func (r *refLRU) dirtyBufs(kind Kind) []refKey {
	var out []refKey
	for e := r.lists[kind].Back(); e != nil; e = e.Prev() {
		if k := e.Value.(refKey); r.dirty[k] {
			out = append(out, k)
		}
	}
	return out
}

func keysOf(bufs []*Buf) []refKey {
	out := make([]refKey, len(bufs))
	for i, b := range bufs {
		out[i] = keyOf(b)
	}
	return out
}

func sameKeys(got, want []refKey) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d buffers, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("position %d: %+v, reference has %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestLRUMatchesListOracle replays seeded insert / lookup / write /
// remove / DropFileData scripts on the cache, whose LRUs are threaded
// through the Bufs, and on the container/list LRU they replaced (a touch
// of a removed buffer included, which both must ignore): every
// eviction takes the reference's victim — dirty victims are written back
// in that order too — and after every op both pools hold the same blocks
// in the same recency order, All front to back and DirtyBufs back to
// front.
func TestLRUMatchesListOracle(t *testing.T) {
	const metaCap, dataCap = 6, 10
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			e := newEnv(t, false, metaCap, dataCap)
			ref := newRefLRU()
			var wroteBack []refKey
			e.c.WriteBack = func(b *Buf) error {
				wroteBack = append(wroteBack, keyOf(b))
				return e.c.MarkClean(b)
			}
			rng := sim.NewRand(seed)
			// A random block: 12 metadata blocks, or 3 files of 6 pages,
			// against 6 and 10 slots — hits, misses, evictions and
			// multi-page drops all occur.
			pick := func() refKey {
				if rng.Intn(3) == 0 {
					return refKey{kind: Meta, block: int64(100 + rng.Intn(12))}
				}
				return refKey{kind: Data, ino: uint32(1 + rng.Intn(3)), fb: int64(rng.Intn(6))}
			}
			cached := func(k refKey) *Buf {
				if k.kind == Meta {
					return e.c.meta[k.block]
				}
				return e.c.data[DataKey{k.ino, k.fb}]
			}
			for step := 0; step < 3000; step++ {
				k := pick()
				b := cached(k)
				var op string
				switch r := rng.Intn(10); {
				case b == nil || r < 3: // insert (a miss fills; a hit re-looks up)
					if b != nil {
						op = "lookup"
						ref.touch(k)
						if k.kind == Meta {
							e.c.LookupMeta(k.block)
						} else {
							e.c.LookupData(k.ino, k.fb)
						}
						break
					}
					op = "insert"
					capCount := dataCap
					if k.kind == Meta {
						capCount = metaCap
					}
					victim, evicted := ref.insert(k, capCount)
					wasDirty := evicted && cached(victim).Dirty
					wroteBack = wroteBack[:0]
					var err error
					if k.kind == Meta {
						_, err = e.c.InsertMeta(k.block, nil)
					} else {
						_, err = e.c.InsertData(k.ino, k.fb, -1, nil, BlockSize)
					}
					if err != nil {
						t.Fatalf("step %d: insert %+v: %v", step, k, err)
					}
					if evicted && cached(victim) != nil {
						t.Fatalf("step %d: inserting %+v kept the reference's victim %+v", step, k, victim)
					}
					if wasDirty && (len(wroteBack) != 1 || wroteBack[0] != victim) {
						t.Fatalf("step %d: dirty victim %+v, written back %+v", step, victim, wroteBack)
					}
				case r < 6:
					op = "write"
					if err := e.c.Write(b, 0, []byte{byte(step)}, BlockSize); err != nil {
						t.Fatalf("step %d: write %+v: %v", step, k, err)
					}
					ref.touch(k)
					ref.dirty[k] = true
				case r < 8:
					op = "remove"
					if err := e.c.Remove(b); err != nil {
						t.Fatalf("step %d: remove %+v: %v", step, k, err)
					}
					ref.remove(k)
					e.c.touch(b) // a stale handle: container/list ignored it
				default:
					op = "drop"
					from := int64(rng.Intn(6))
					if err := e.c.DropFileData(k.ino, from); err != nil {
						t.Fatalf("step %d: drop ino %d from %d: %v", step, k.ino, from, err)
					}
					for _, rk := range ref.all(Data) {
						if rk.ino == k.ino && rk.fb >= from {
							ref.remove(rk)
						}
					}
				}
				for _, kind := range []Kind{Meta, Data} {
					if err := sameKeys(keysOf(e.c.All(kind)), ref.all(kind)); err != nil {
						t.Fatalf("step %d (%s %+v): %v All: %v", step, op, k, kind, err)
					}
					if err := sameKeys(keysOf(e.c.DirtyBufs(kind)), ref.dirtyBufs(kind)); err != nil {
						t.Fatalf("step %d (%s %+v): %v DirtyBufs: %v", step, op, k, kind, err)
					}
					if e.c.Len(kind) != ref.lists[kind].Len() {
						t.Fatalf("step %d: %v Len %d, reference %d", step, kind, e.c.Len(kind), ref.lists[kind].Len())
					}
				}
			}
		})
	}
}

// TestDropFileDataAllocatesNothing: once its scratch has grown, dropping
// a file's pages allocates nothing.
func TestDropFileDataAllocatesNothing(t *testing.T) {
	e := newEnv(t, false, 8, 16)
	var mallocs uint64
	for i := 0; i < 6; i++ {
		for fb := int64(0); fb < 8; fb++ {
			if _, err := e.c.InsertData(7, fb, -1, nil, BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := e.c.DropFileData(7, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if i > 0 { // the first drop grows the scratch
			mallocs += m1.Mallocs - m0.Mallocs
		}
	}
	if mallocs != 0 || e.c.Len(Data) != 0 {
		t.Fatalf("5 drops of 8 pages allocated %d objects and left %d pages, want 0 and 0", mallocs, e.c.Len(Data))
	}
}
