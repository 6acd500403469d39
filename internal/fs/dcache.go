package fs

// The name-resolution cache (dcache) maps (directory inode, name) to the
// child's inode number so resolve does not re-read directory blocks for
// every path component — the same trade Digital Unix made with its namei
// cache. It is *simulated* cache state: it lives on the mounted FS, so a
// crash or warm reboot drops it wholesale (Mount builds a fresh one), and
// the two dirent mutators (dirInsert, dirRemove) keep it coherent — there
// is no other writer of directory entries on a mounted file system.
//
// Entries are keyed by the parent's inode number, not its path, so a
// rename of an ancestor directory does not stale them. The cache is
// bounded by an LRU list with deterministic eviction order; all map
// accesses are by exact key (no iteration), keeping riolint's
// determinism discipline trivially satisfied.
//
// The list is threaded by index through one slab of nodes that grows to
// dcacheCap and is then recycled — eviction reuses the evicted node,
// invalidate returns its node to a free list — so a mount allocates for
// the slab and the map, not per name. Every boot rebuilds the cache, and
// the data restore of a warm reboot puts a name per restored file.

// dcacheCap bounds the cache. 1024 entries covers the benchmark trees
// and the crash-campaign workloads without letting a pathological
// workload grow the map unboundedly.
const dcacheCap = 1024

type dcacheKey struct {
	dir  uint32
	name string
}

// dcacheNil is the null node index.
const dcacheNil = -1

type dcacheNode struct {
	key        dcacheKey
	ino        uint32
	prev, next int32 // LRU neighbours (toward front, toward back); free list through next
}

type dcache struct {
	m           map[dcacheKey]int32 // key -> index into nodes
	nodes       []dcacheNode
	front, back int32 // most, least recently used
	free        int32 // nodes invalidate gave back
}

func newDcache() *dcache {
	return &dcache{m: make(map[dcacheKey]int32), front: dcacheNil, back: dcacheNil, free: dcacheNil}
}

// unlink takes node i out of the LRU list.
func (dc *dcache) unlink(i int32) {
	n := &dc.nodes[i]
	if n.prev != dcacheNil {
		dc.nodes[n.prev].next = n.next
	} else {
		dc.front = n.next
	}
	if n.next != dcacheNil {
		dc.nodes[n.next].prev = n.prev
	} else {
		dc.back = n.prev
	}
}

// pushFront makes node i the most recently used.
func (dc *dcache) pushFront(i int32) {
	n := &dc.nodes[i]
	n.prev, n.next = dcacheNil, dc.front
	if dc.front != dcacheNil {
		dc.nodes[dc.front].prev = i
	} else {
		dc.back = i
	}
	dc.front = i
}

func (dc *dcache) moveToFront(i int32) {
	if dc.front != i {
		dc.unlink(i)
		dc.pushFront(i)
	}
}

// get returns the cached child inode for (dir, name), refreshing its LRU
// position on a hit.
func (dc *dcache) get(dir uint32, name string) (uint32, bool) {
	if dc == nil {
		return 0, false
	}
	i, ok := dc.m[dcacheKey{dir, name}]
	if !ok {
		return 0, false
	}
	dc.moveToFront(i)
	return dc.nodes[i].ino, true
}

// put records (dir, name) → ino, evicting the least recently used entry
// when the cache is full.
func (dc *dcache) put(dir uint32, name string, ino uint32) {
	if dc == nil {
		return
	}
	key := dcacheKey{dir, name}
	if i, ok := dc.m[key]; ok {
		dc.nodes[i].ino = ino
		dc.moveToFront(i)
		return
	}
	var i int32
	switch {
	case len(dc.m) >= dcacheCap:
		i = dc.back
		delete(dc.m, dc.nodes[i].key)
		dc.unlink(i)
	case dc.free != dcacheNil:
		i = dc.free
		dc.free = dc.nodes[i].next
	default:
		i = int32(len(dc.nodes))
		dc.nodes = append(dc.nodes, dcacheNode{})
	}
	dc.nodes[i].key, dc.nodes[i].ino = key, ino
	dc.pushFront(i)
	dc.m[key] = i
}

// invalidate removes the entry for (dir, name), if cached.
func (dc *dcache) invalidate(dir uint32, name string) {
	if dc == nil {
		return
	}
	key := dcacheKey{dir, name}
	if i, ok := dc.m[key]; ok {
		delete(dc.m, key)
		dc.unlink(i)
		dc.nodes[i] = dcacheNode{next: dc.free} // drops the name with the key
		dc.free = i
	}
}

// Len reports the number of live entries (tests and stats).
func (dc *dcache) Len() int {
	if dc == nil {
		return 0
	}
	return len(dc.m)
}
