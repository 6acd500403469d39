package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"rio"
	"rio/internal/fs"
	"rio/internal/kernel"
	"rio/internal/mem"
	"rio/internal/mmu"
	"rio/internal/registry"
	"rio/internal/server"
	"rio/internal/sim"
	"rio/internal/txn"
	"rio/internal/warmreboot"
)

// Below rung R1 the layers nest too finely to separate by subtraction,
// so the traced run times each layer's exported functions directly, at
// the workloads' sizes (8 KB blocks, 512 B messages, depth-6 paths), on
// scratch machines no workload touches. These are unit costs, not
// shares of a request: they say which layer got slower, and the ladder
// says whether it matters.

type unitStep struct {
	name string
	fn   func(int) error
}

// timeNS runs fn n times per batch, reps batches, and returns the median
// batch's time per call in nanoseconds.
func timeNS(reps, n int, fn func(i int) error) (float64, error) {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(r*n + i); err != nil {
				return 0, err
			}
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return median(per), nil
}

// unitTimes measures every scratch-machine metric. quick shrinks the
// loops for the smoke test.
func unitTimes(seed uint64, quick bool) (map[string]float64, error) {
	reps, n, rebootRuns := 5, 400, 3
	if quick {
		reps, n, rebootRuns = 3, 40, 1
	}
	v := map[string]float64{}
	set := func(name string) func(float64, error) error {
		return func(x float64, err error) error {
			if err != nil {
				return fmt.Errorf("bench: unit %s: %w", name, err)
			}
			v[name] = x
			return nil
		}
	}

	sys, err := rio.New(rio.Config{MemoryMB: shardMemoryMB, Seed: sim.Mix(seed, tagUnits)})
	if err != nil {
		return nil, err
	}
	m := sys.Machine()
	block := make([]byte, kvValue)
	sim.NewRand(sim.Mix(seed, tagUnits, 1)).Bytes(block)

	// fs: the calls the serving path makes, on a depth-6 path.
	const deepDir, deepFile = "/u/a/b/c/d/e", "/u/a/b/c/d/e/f"
	if err := server.MkdirAll(sys, deepDir); err != nil {
		return nil, err
	}
	if err := sys.WriteFile(deepFile, block); err != nil {
		return nil, err
	}
	ino, _, _, err := m.FS.Lookup(deepFile)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, kvValue)
	steps := []unitStep{
		{"fs.lookup_ns", func(int) error { _, _, _, err := m.FS.Lookup(deepFile); return err }},
		{"fs.write8k_ns", func(int) error { _, err := m.FS.WriteInoAt(ino, block, 0); return err }},
		{"fs.read8k_ns", func(int) error { _, err := m.FS.ReadInoAt(ino, dst, 0); return err }},
	}
	for _, s := range steps {
		if err := set(s.name)(timeNS(reps, n, s.fn)); err != nil {
			return nil, err
		}
	}

	// create, rename, unlink: each batch makes a mailspool directory's
	// worth of files (serve-meta keeps at most metaSlots live), moves
	// them, and removes them, so the directory is the same size for
	// every batch.
	const files = metaSlots
	if err := sys.Mkdir("/u/spool"); err != nil {
		return nil, err
	}
	var create, rename, unlink, createAllocs, createBytes, unlinkBytes []float64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		name := func(prefix string, i int) string { return fmt.Sprintf("/u/spool/%s-%d", prefix, r*files+i) }
		phase := func(fn func(i int) error) (float64, error) {
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := 0; i < files; i++ {
				if err := fn(i); err != nil {
					return 0, err
				}
			}
			took := float64(time.Since(start)) / float64(files)
			runtime.ReadMemStats(&ms1)
			return took, nil
		}
		t, err := phase(func(i int) error {
			f, err := m.FS.Create(name("t", i))
			if err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("bench: unit fs.create_ns: %w", err)
		}
		create = append(create, t)
		// The name strings are the benchmark's own allocations: one each.
		createAllocs = append(createAllocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(files)-1)
		createBytes = append(createBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(files))
		if t, err = phase(func(i int) error { return m.FS.Rename(name("t", i), name("m", i)) }); err != nil {
			return nil, fmt.Errorf("bench: unit fs.rename_ns: %w", err)
		}
		rename = append(rename, t)
		if t, err = phase(func(i int) error { return m.FS.Unlink(name("m", i)) }); err != nil {
			return nil, fmt.Errorf("bench: unit fs.unlink_ns: %w", err)
		}
		unlink = append(unlink, t)
		unlinkBytes = append(unlinkBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(files))
	}
	v["fs.create_ns"], v["fs.rename_ns"], v["fs.unlink_ns"] = median(create), median(rename), median(unlink)
	v["fs.allocs_per_create"] = median(createAllocs)
	v["fs.alloc_bytes_per_create"] = median(createBytes)
	v["fs.alloc_bytes_per_unlink"] = median(unlinkBytes)

	// txn: one serve-meta transaction (512 B write + mv) published,
	// applied and erased, as a shard's group commit of one does.
	log := txn.NewLog(m.FS)
	msg := block[:metaMsgSize]
	err = set("txn.commit_us")(timeNS(reps, n/4+1, func(i int) error {
		t, f := fmt.Sprintf("/u/spool/t-%d", i), fmt.Sprintf("/u/spool/m-%d", i)
		rec := txn.Record{ID: uint64(i) + 1, Ops: []txn.Op{
			{Kind: txn.OpWrite, Path: t, Data: msg}, {Kind: txn.OpRename, Path: t, Path2: f}}}
		if err := log.Publish([]txn.Record{rec}); err != nil {
			return err
		}
		if err := log.Apply(&rec); err != nil {
			return err
		}
		if err := log.Erase(); err != nil {
			return err
		}
		return m.FS.Unlink(f)
	}))
	if err != nil {
		return nil, err
	}
	v["txn.commit_us"] /= 1e3

	// cache, registry, mmu and the kernel's sanctioned block write, on
	// the deep file's (resident, dirty) data buffer.
	buf := m.Cache.LookupData(ino, 0)
	if buf == nil {
		return nil, fmt.Errorf("bench: %s has no data buffer in the cache", deepFile)
	}
	steps = []unitStep{
		{"cache.write8k_ns", func(int) error { return m.Cache.Write(buf, 0, block, kvValue) }},
		{"cache.read_direct8k_ns", func(int) error { return m.Cache.ReadDirect(buf, 0, dst) }},
		{"registry.mutate_ns", func(i int) error {
			return m.Reg.Mutate(buf.Slot, func(e *registry.Entry) { e.Cksum = uint64(i) })
		}},
		{"registry.alloc_free_ns", func(int) error {
			slot, err := m.Reg.Alloc(registry.Entry{Kind: registry.KindData, Frame: uint32(buf.Frame), Ino: ino, Off: kvValue})
			if err != nil {
				return err
			}
			return m.Reg.Free(slot)
		}},
		{"kernel.write_block8k_ns", func(int) error {
			if err := m.Kernel.SetBufHdrOp(buf.Hdr, kvValue, m.Kernel.StageIn(block), 0); err != nil {
				return err
			}
			m.MMU.SetFrameProtection(buf.Frame, false)
			err := m.Kernel.WriteBlock(buf.Hdr)
			m.MMU.SetFrameProtection(buf.Frame, true)
			return err
		}},
		{"mmu.set_protection_ns", func(i int) error {
			m.MMU.SetFrameProtection(buf.Frame, false)
			m.MMU.SetFrameProtection(buf.Frame, true)
			return nil
		}},
		{"mmu.translate_ns", func(int) error {
			if _, trap := m.MMU.Translate(buf.Addr, false); trap != nil {
				return fmt.Errorf("translate trapped: %v", trap)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := set(s.name)(timeNS(reps, n, s.fn)); err != nil {
			return nil, err
		}
	}

	v["mmu.set_protection_ns"] /= 2 // the step opens and closes the frame

	// kernel bulk operations, accelerated and interpreted, on a bare
	// kernel (the interpreter is what crash campaigns run).
	for _, interp := range []bool{false, true} {
		km := mem.New(kernel.MinMemory)
		k := kernel.New(km, mmu.New(km), kernel.BuildText())
		k.FastPath = !interp
		src := k.StageIn(block)
		copyFn := func(int) error { return k.BCopy(kernel.HeapBase+4096, src, kvValue) }
		if !interp {
			if err := set("kernel.bcopy8k_ns")(timeNS(reps, n, copyFn)); err != nil {
				return nil, err
			}
			err := set("kernel.cksum8k_ns")(timeNS(reps, n, func(int) error { _, err := k.Cksum(src, kvValue); return err }))
			if err != nil {
				return nil, err
			}
			continue
		}
		before, start := k.VM.Steps, time.Now()
		if _, err := timeNS(1, n/4+1, copyFn); err != nil {
			return nil, fmt.Errorf("bench: unit kvm: %w", err)
		}
		took, ran := time.Since(start), float64(k.VM.Steps-before)
		v["kvm.steps_per_s"] = ran / took.Seconds()
		v["kvm.ns_per_step"] = float64(took) / ran
	}

	// warm reboot against the size of the dirty set.
	type reboot struct {
		warmMS, downMS, simMS float64
		rep                   *warmreboot.Report
	}
	warm := func(dirty int) (reboot, error) {
		var runs []reboot
		for r := 0; r < rebootRuns; r++ {
			s, err := rio.New(rio.Config{MemoryMB: shardMemoryMB, Seed: sim.Mix(seed, tagUnits, uint64(dirty))})
			if err != nil {
				return reboot{}, err
			}
			for i := 0; i < dirty; i++ {
				if err := s.WriteFile(fmt.Sprintf("/k%04d", i), block); err != nil {
					return reboot{}, err
				}
			}
			down := time.Now()
			s.Crash("bench: unit warm reboot")
			start := time.Now()
			rep, err := warmreboot.Warm(s.Machine())
			if err != nil {
				return reboot{}, err
			}
			warmed := time.Now()
			if _, err := txn.NewLog(s.Machine().FS).Recover(); err != nil {
				return reboot{}, err
			}
			runs = append(runs, reboot{
				warmMS: float64(warmed.Sub(start)) / 1e6,
				downMS: float64(time.Since(down)) / 1e6,
				simMS:  float64(s.Machine().Elapsed()) / 1e6,
				rep:    rep,
			})
			if r == rebootRuns-1 && dirty == dirtyLarge {
				// The machine is freshly recovered: a representative volume
				// for fsck, and a full registry to parse.
				start = time.Now()
				if _, err := fs.Fsck(s.Machine().Disk); err != nil {
					return reboot{}, err
				}
				v["fs.fsck_ms"] = float64(time.Since(start)) / 1e6
				sm := s.Machine()
				dump, frames := sm.Mem.Dump(), sm.Reg.Frames()
				var entries int
				ns, err := timeNS(reps, 4, func(int) error {
					es, _ := registry.Parse(dump, frames)
					entries = len(es)
					return nil
				})
				if err != nil || entries == 0 {
					return reboot{}, fmt.Errorf("bench: unit registry.parse: %d entries, %v", entries, err)
				}
				v["registry.parse_us_per_kentry"] = ns / 1e3 / float64(entries) * 1000
			}
			runtime.GC()
		}
		// Report the run with the median warm time, whole.
		sort.Slice(runs, func(i, j int) bool { return runs[i].warmMS < runs[j].warmMS })
		return runs[len(runs)/2], nil
	}
	small, err := warm(dirtySmall)
	if err != nil {
		return nil, fmt.Errorf("bench: unit warmreboot: %w", err)
	}
	large, err := warm(dirtyLarge)
	if err != nil {
		return nil, fmt.Errorf("bench: unit warmreboot: %w", err)
	}
	v["warmreboot.warm_ms"], v["warmreboot.warm_ms_d32"] = large.warmMS, small.warmMS
	v["warmreboot.down_ms"], v["warmreboot.sim_ms"] = large.downMS, large.simMS
	v["warmreboot.entries"] = float64(large.rep.Entries)
	v["warmreboot.data_restored"] = float64(large.rep.DataRestored)
	v["warmreboot.checksum_mismatches"] = float64(large.rep.ChecksumMismatches)
	if pages := large.rep.DataRestored - small.rep.DataRestored; pages > 0 {
		v["warmreboot.us_per_dirty_page"] = (large.warmMS - small.warmMS) * 1e3 / float64(pages)
	}
	return v, nil
}
