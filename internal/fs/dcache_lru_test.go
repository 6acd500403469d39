package fs

import (
	"container/list"
	"fmt"
	"runtime"
	"testing"

	"rio/internal/sim"
)

// refDcache is the container/list dcache the slab one replaced, kept as
// the oracle: same capacity, same exact-key lookups, same eviction order.
type refDcache struct {
	m   map[dcacheKey]*list.Element
	lru *list.List // front = most recently used
}

type refDcacheEntry struct {
	key dcacheKey
	ino uint32
}

func newRefDcache() *refDcache {
	return &refDcache{m: make(map[dcacheKey]*list.Element), lru: list.New()}
}

func (dc *refDcache) get(dir uint32, name string) (uint32, bool) {
	el, ok := dc.m[dcacheKey{dir, name}]
	if !ok {
		return 0, false
	}
	dc.lru.MoveToFront(el)
	return el.Value.(*refDcacheEntry).ino, true
}

func (dc *refDcache) put(dir uint32, name string, ino uint32) {
	key := dcacheKey{dir, name}
	if el, ok := dc.m[key]; ok {
		el.Value.(*refDcacheEntry).ino = ino
		dc.lru.MoveToFront(el)
		return
	}
	if dc.lru.Len() >= dcacheCap {
		back := dc.lru.Back()
		delete(dc.m, back.Value.(*refDcacheEntry).key)
		dc.lru.Remove(back)
	}
	dc.m[key] = dc.lru.PushFront(&refDcacheEntry{key: key, ino: ino})
}

func (dc *refDcache) invalidate(dir uint32, name string) {
	key := dcacheKey{dir, name}
	if el, ok := dc.m[key]; ok {
		delete(dc.m, key)
		dc.lru.Remove(el)
	}
}

// order lists the reference's entries, most recently used first.
func (dc *refDcache) order() []refDcacheEntry {
	var out []refDcacheEntry
	for el := dc.lru.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*refDcacheEntry))
	}
	return out
}

// order lists the slab cache's entries, most recently used first, and
// checks the list against itself on the way: back links, the back pointer
// and the map must all describe the same chain.
func (dc *dcache) order(t *testing.T) []refDcacheEntry {
	t.Helper()
	var out []refDcacheEntry
	prev := int32(dcacheNil)
	for i := dc.front; i != dcacheNil; i = dc.nodes[i].next {
		n := dc.nodes[i]
		if n.prev != prev {
			t.Fatalf("node %d: prev %d, want %d", i, n.prev, prev)
		}
		if dc.m[n.key] != i {
			t.Fatalf("node %d (%v): map says %d", i, n.key, dc.m[n.key])
		}
		if len(out) > len(dc.m) {
			t.Fatal("LRU list is longer than the map: a cycle")
		}
		out = append(out, refDcacheEntry{n.key, n.ino})
		prev = i
	}
	if dc.back != prev || len(out) != len(dc.m) {
		t.Fatalf("back %d (walk ended at %d), %d listed, %d mapped", dc.back, prev, len(out), len(dc.m))
	}
	return out
}

type dcacheOp struct {
	op   byte // 'p'ut, 'g'et, 'i'nvalidate
	dir  uint32
	name string
	ino  uint32
}

func sameOrder(a, b []refDcacheEntry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries, reference has %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("LRU position %d: %+v, reference has %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestDcacheMatchesListLRU replays op scripts on the slab cache and on the
// container/list one it replaced: every get answers the same, and after
// every op the two hold the same entries in the same recency order — so
// the same entry is the next one evicted.
func TestDcacheMatchesListLRU(t *testing.T) {
	name := func(i int) string { return fmt.Sprintf("n%05d", i) }
	fill := func(n int) []dcacheOp {
		var ops []dcacheOp
		for i := 0; i < n; i++ {
			ops = append(ops, dcacheOp{'p', 1, name(i), uint32(i + 2)})
		}
		return ops
	}
	churn := func(seed uint64, n int) []dcacheOp {
		rng := sim.NewRand(seed)
		var ops []dcacheOp
		for i := 0; i < n; i++ {
			// 1400 names over two directories against 1024 slots: hits,
			// misses, refreshes, evictions and free-list reuse all occur.
			op := dcacheOp{op: "ppgggi"[rng.Intn(6)], dir: uint32(1 + rng.Intn(2)),
				name: name(rng.Intn(700)), ino: uint32(2 + rng.Intn(1000))}
			ops = append(ops, op)
		}
		return ops
	}
	scripts := []struct {
		name string
		ops  []dcacheOp
	}{
		{"rebind refreshes", []dcacheOp{
			{'p', 1, "a", 2}, {'p', 1, "b", 3}, {'p', 1, "a", 4}, {'g', 1, "a", 0}, {'g', 2, "a", 0}}},
		{"invalidate head, tail, middle, absent", append(fill(5), []dcacheOp{
			{'i', 1, name(4), 0}, {'i', 1, name(0), 0}, {'i', 1, name(2), 0}, {'i', 1, "absent", 0},
			{'p', 1, "x", 9}, {'p', 1, "y", 10}, {'p', 1, "z", 11}, {'i', 1, name(1), 0}, {'i', 1, name(3), 0},
			{'i', 1, "x", 0}, {'i', 1, "y", 0}, {'i', 1, "z", 0}, {'p', 1, "again", 12}}...)},
		{"fill to capacity", fill(dcacheCap)},
		{"overfill by 100", fill(dcacheCap + 100)},
		{"hits protect from eviction", append(append(fill(dcacheCap),
			dcacheOp{'g', 1, name(0), 0}, dcacheOp{'g', 1, name(7), 0}, dcacheOp{'p', 1, name(3), 77}),
			fill(dcacheCap + 50)[dcacheCap:]...)},
		{"churn 1", churn(1, 20000)},
		{"churn 2", churn(2, 20000)},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			dc, ref := newDcache(), newRefDcache()
			for step, op := range sc.ops {
				switch op.op {
				case 'p':
					dc.put(op.dir, op.name, op.ino)
					ref.put(op.dir, op.name, op.ino)
				case 'g':
					ino, ok := dc.get(op.dir, op.name)
					rino, rok := ref.get(op.dir, op.name)
					if ino != rino || ok != rok {
						t.Fatalf("step %d: get(%d, %q) = %d, %v; reference %d, %v", step, op.dir, op.name, ino, ok, rino, rok)
					}
				case 'i':
					dc.invalidate(op.dir, op.name)
					ref.invalidate(op.dir, op.name)
				}
				if dc.Len() != ref.lru.Len() {
					t.Fatalf("step %d: Len %d, reference %d", step, dc.Len(), ref.lru.Len())
				}
				// The full order is quadratic in the script; check it on
				// short scripts at every step and on long ones now and then.
				if len(sc.ops) <= 64 || step%997 == 0 || step == len(sc.ops)-1 {
					if err := sameOrder(dc.order(t), ref.order()); err != nil {
						t.Fatalf("step %d (%c %d %q): %v", step, op.op, op.dir, op.name, err)
					}
				}
			}
			if len(dc.nodes) > dcacheCap {
				t.Fatalf("slab grew to %d nodes, capacity is %d", len(dc.nodes), dcacheCap)
			}
		})
	}
}

// TestDcacheEvictsLeastRecentlyUsedInOrder puts dcacheCap+100 distinct
// names: exactly the first 100 are evicted, oldest first, one per put past
// capacity — and once the slab is full a put allocates nothing.
func TestDcacheEvictsLeastRecentlyUsedInOrder(t *testing.T) {
	const extra = 100
	names := make([]string, dcacheCap+extra+2000)
	for i := range names {
		names[i] = fmt.Sprintf("f%06d", i)
	}
	dc := newDcache()
	for i := 0; i < dcacheCap; i++ {
		dc.put(1, names[i], uint32(i+2))
	}
	for i := 0; i < extra; i++ {
		if got := dc.nodes[dc.back].key.name; got != names[i] {
			t.Fatalf("before put %d past capacity: least recently used is %q, want %q", i, got, names[i])
		}
		dc.put(1, names[dcacheCap+i], uint32(dcacheCap+i+2))
		if _, ok := dc.m[dcacheKey{1, names[i]}]; ok || dc.Len() != dcacheCap {
			t.Fatalf("put %d past capacity: %q still cached = %v, Len %d", i, names[i], ok, dc.Len())
		}
	}
	for i := 0; i < dcacheCap+extra; i++ {
		ino, ok := dc.get(1, names[i])
		if want := i >= extra; ok != want || (ok && ino != uint32(i+2)) {
			t.Fatalf("get %q = %d, %v; cached should be %v", names[i], ino, ok, want)
		}
	}
	next := dcacheCap + extra
	// AllocsPerRun's integer average forgives the map's own occasional
	// rehash; a per-name node or list element would read >= 1.
	if avg := testing.AllocsPerRun(1500, func() {
		dc.put(1, names[next], 7)
		next++
	}); avg != 0 {
		t.Fatalf("put on a full slab allocates %.0f objects, want 0", avg)
	}
	if len(dc.nodes) != dcacheCap {
		t.Fatalf("slab has %d nodes, want %d", len(dc.nodes), dcacheCap)
	}
}

// TestCreateAllocBudget: creating the 64th..128th file of one directory
// costs at most 4 heap objects each. Measured 2.08: the *File, splitPath's
// component slice, and now and then a bucket of the dcache's map. The
// lookup that precedes the insert scans every live entry of the directory,
// so a string per dirent walked past (36.5 objects per create when dirScan
// built a Dirent for each) cannot hide in it.
func TestCreateAllocBudget(t *testing.T) {
	f := newAllocFS(t)
	if err := f.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 129)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d/file-%04d", i)
	}
	create := func(from, to int) {
		for _, p := range paths[from:to] {
			fl, err := f.Create(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	create(0, 63)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	create(63, 128)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / 65
	t.Logf("%.2f objects per create (files 64..128 of one directory)", per)
	if per > 4 {
		t.Fatalf("create allocates %.2f objects, budget 4", per)
	}
}
