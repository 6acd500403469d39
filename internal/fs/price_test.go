package fs

import (
	"testing"

	"rio/internal/disk"
)

// TestQueuePricedByDiskModel: the asynchronous write queue prices each
// block with the disk's own formula, disk.ServiceTime — a write to the
// block after the last I/O as sequential, one to a distant block as a
// seek — so fs holds no second copy of the disk model to drift from it.
func TestQueuePricedByDiskModel(t *testing.T) {
	f := newTestFS(t, DefaultPolicy(PolicyUFSDelayed))
	first := f.SB.DataStart
	// Read the three blocks in first: a synchronous read moves the head.
	for _, block := range []int64{first, first + 1, first + 100} {
		if _, err := f.metaBuf(block); err != nil {
			t.Fatal(err)
		}
	}
	queue := func(block int64) {
		t.Helper()
		f.writeBufAsync(block, f.C.LookupMeta(block), nil)
		if f.lastIO != block {
			t.Fatalf("queued write to %d left the last I/O at %d", block, f.lastIO)
		}
	}
	queue(first)
	for _, step := range []struct {
		block int64
		seq   bool
	}{{first + 1, true}, {first + 100, false}} {
		before := f.diskFree
		queue(step.block)
		if got, want := f.diskFree.Sub(before), disk.ServiceTime(step.seq, BlockSize); got != want {
			t.Errorf("write to block %d (sequential %v) took the disk %d ns, the disk model prices it %d ns",
				step.block, step.seq, got, want)
		}
	}
	if f.PendingWrites() != 3 {
		t.Fatalf("%d writes queued, want 3", f.PendingWrites())
	}
}
