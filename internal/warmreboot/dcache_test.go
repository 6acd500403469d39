package warmreboot

import (
	"testing"

	"rio/internal/workload"
)

// TestWarmRebootDropsNameCache crashes a machine mid-workload and checks
// that warm reboot leaves no stale name-resolution state: the remounted
// FS starts with an empty dcache (lookups resolve from recovered
// directory blocks, not remembered mappings), and the memTest oracle —
// which knows every path and its contents — finds no corruption, which
// it would if a stale (dir, name) → ino mapping survived the reboot.
func TestWarmRebootDropsNameCache(t *testing.T) {
	for _, protect := range []bool{false, true} {
		m := rioMachine(t, protect)
		mt := workload.NewMemTest(77, 1<<20)
		for i := 0; i < 400; i++ {
			if err := mt.Step(m.FS); err != nil {
				t.Fatalf("protect=%v step %d: %v", protect, i, err)
			}
		}
		if m.FS.Stats.DcacheHits == 0 {
			t.Fatal("workload never exercised the dcache")
		}

		m.Kernel.Panic("injected crash with a hot name cache")
		m.CrashFinish()
		if _, err := Warm(m); err != nil {
			t.Fatalf("protect=%v: warm reboot: %v", protect, err)
		}

		// Warm remounted a fresh FS (empty dcache) and then re-created the
		// recovered files through ordinary syscalls; any hits counted now
		// come from that restore pass, on entries the restore itself
		// inserted — never from pre-crash state, whose FS (and cache) was
		// discarded with the old mount.
		if bad := mt.Check(m.FS).Corruptions; len(bad) != 0 {
			t.Fatalf("protect=%v: oracle found corruption after reboot: %v",
				protect, bad)
		}
		// And the verification pass itself must have warmed the fresh
		// cache through the normal path — proving lookups, not leftovers,
		// populate it.
		if mt.FileCount() > 0 && m.FS.Stats.DcacheMisses == 0 {
			t.Fatalf("protect=%v: verify pass never missed the fresh dcache", protect)
		}
	}
}
