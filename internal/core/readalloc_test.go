package core

import (
	"fmt"
	"testing"

	"cclbtree/internal/pmem"
)

// TestLookupZeroAlloc gates the lock-free point-read path at zero
// allocations per op: RCU routing, epoch pin, fingerprint probe and
// leaf search must all stay on the stack.
func TestLookupZeroAlloc(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2048; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	var k uint64 = 1
	avg := testing.AllocsPerRun(3000, func() {
		w.Lookup(k)
		k = k%2048 + 1
	})
	if avg != 0 {
		t.Fatalf("Lookup allocates %.2f objects/op, want 0", avg)
	}
	// Misses are on the same path.
	avg = testing.AllocsPerRun(1000, func() { w.Lookup(1 << 40) })
	if avg != 0 {
		t.Fatalf("missing-key Lookup allocates %.2f objects/op, want 0", avg)
	}
}

// TestScanZeroAllocSteadyState gates Scan's per-node collection: after
// the worker's reusable candidate/entry buffers warm up, a scan
// performs no per-call allocation.
func TestScanZeroAllocSteadyState(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newTestTree(t, Options{}, nil)
	for i := uint64(1); i <= 2048; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]KV, 64)
	w.Scan(1, 64, out) // warm the scratch buffers
	var start uint64 = 1
	avg := testing.AllocsPerRun(1000, func() {
		w.Scan(start, 64, out)
		start = start%1900 + 1
	})
	if avg != 0 {
		t.Fatalf("steady-state Scan allocates %.2f objects/op, want 0", avg)
	}
}

// TestUpsertAllocBound gates the insert path's allocations on
// BenchmarkInsert's configuration: sequential fresh keys, so the
// average includes buffer flushes, leaf splits and WAL chunk turnover.
// The PM model itself contributes nothing (see the pmem zero-alloc
// gate); what remains is tree structure. check.sh greps the
// UPSERT_ALLOCS line.
func TestUpsertAllocBound(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const bound = 4
	pool := pmem.NewPool(pmem.Config{
		Sockets:              1,
		DIMMsPerSocket:       2,
		DeviceBytes:          512 << 20,
		DisableCrashTracking: true,
	})
	tr, err := New(pool, Options{GC: GCOff})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	var k uint64
	avg := testing.AllocsPerRun(50000, func() {
		k++
		if err := w.Upsert(k, k); err != nil {
			t.Fatal(err)
		}
	})
	fmt.Printf("UPSERT_ALLOCS allocs_per_op=%.2f bound=%d\n", avg, bound)
	if avg > bound {
		t.Fatalf("Upsert allocates %.2f objects/op, want <= %d", avg, bound)
	}
}
