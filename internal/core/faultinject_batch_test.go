package core

import (
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
)

// batchWorkload yields the deterministic batch sequence for the batched
// crash sweep: 150 batches of up to 24 ops over a 300-key space. Keys
// are unique within a batch so each in-flight op has exactly one
// pre-state and one post-state to check.
func batchWorkload(fn func(ops []BatchOp)) {
	rng := rand.New(rand.NewSource(424242))
	const space = 300
	for b := 0; b < 150; b++ {
		seen := map[uint64]bool{}
		var ops []BatchOp
		for len(ops) < 24 {
			k := uint64(rng.Intn(space) + 1)
			if seen[k] {
				continue
			}
			seen[k] = true
			if rng.Intn(6) == 0 {
				ops = append(ops, BatchOp{Key: k, Delete: true})
			} else {
				ops = append(ops, BatchOp{Key: k, Value: uint64(rng.Intn(1<<30) + 1)})
			}
		}
		fn(ops)
	}
}

func countBatchFlushes(t *testing.T, mode pmem.Mode, gc GCPolicy) int {
	t.Helper()
	pool := newTestPool(func(c *pmem.Config) { c.Mode = mode })
	tr, err := New(pool, Options{ChunkBytes: 8 << 10, GC: gc})
	if err != nil {
		t.Fatal(err)
	}
	base := pool.FlushCalls()
	w := tr.NewWorker(0)
	batchWorkload(func(ops []BatchOp) {
		if err := w.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	})
	tr.Freeze()
	return int(pool.FlushCalls() - base)
}

// TestCrashAtEveryFlushBoundaryBatched is the ApplyBatch variant of
// TestCrashAtEveryFlushBoundary: power fails at sampled flush
// boundaries inside group commits, coalesced trigger flushes, splits
// and GC. After recovery, every op of every COMPLETED batch must be
// durable with its latest value, and each op of the in-flight batch
// must independently read as either its pre-batch or its post-op state
// — the batch is atomic per op, not as a unit.
func TestCrashAtEveryFlushBoundaryBatched(t *testing.T) {
	cases := []struct {
		name string
		mode pmem.Mode
		gc   GCPolicy
	}{
		{"adr-gcoff", pmem.ADR, GCOff},
		{"eadr-gcoff", pmem.EADR, GCOff},
		{"adr-gc", pmem.ADR, GCLocalityAware},
		{"eadr-gc", pmem.EADR, GCLocalityAware},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			total := countBatchFlushes(t, c.mode, c.gc)
			if total < 100 {
				t.Fatalf("workload too small: %d flushes", total)
			}
			points := 150
			if testing.Short() {
				points = 40
			}
			step := 1
			if total > points {
				step = total / points
			}
			for point := int64(1); point <= int64(total); point += int64(step) {
				runBatchCrashPoint(t, c.mode, c.gc, point)
			}
		})
	}
}

func runBatchCrashPoint(t *testing.T, mode pmem.Mode, gc GCPolicy, point int64) {
	t.Helper()
	pool := newTestPool(func(c *pmem.Config) { c.Mode = mode })
	opts := Options{ChunkBytes: 8 << 10, GC: gc}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)

	ref := map[uint64]uint64{} // state after the last COMPLETED batch
	var inFlight []BatchOp     // the batch in flight at the crash
	completed := 0

	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.PowerFailure); !ok {
					panic(r)
				}
				c = true
			}
		}()
		target := pool.FlushCalls() + point
		pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == target })
		batchWorkload(func(ops []BatchOp) {
			inFlight = ops
			if err := w.ApplyBatch(ops); err != nil {
				t.Error(err)
				panic(pmem.PowerFailure{})
			}
			for _, op := range ops {
				if op.Delete {
					delete(ref, op.Key)
				} else {
					ref[op.Key] = op.Value
				}
			}
			inFlight = nil
			completed++
		})
		return false
	}()
	tr.Freeze()
	pool.FailWhen(nil)
	if !crashed {
		return
	}

	pool.Crash()
	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("point %d: recovery failed after %d batches: %v", point, completed, err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)

	inBatch := map[uint64]BatchOp{}
	for _, op := range inFlight {
		inBatch[op.Key] = op
	}
	for k, v := range ref {
		if _, ok := inBatch[k]; ok {
			continue // checked below
		}
		got, ok := w2.Lookup(k)
		if !ok || got != v {
			t.Fatalf("point %d: completed key %d lost (%d,%v want %d) after %d batches",
				point, k, got, ok, v, completed)
		}
	}
	// Per-op atomicity of the in-flight batch: each key independently
	// pre-state or post-state.
	for k, op := range inBatch {
		preVal, preOK := ref[k]
		got, ok := w2.Lookup(k)
		oldState := ok == preOK && (!ok || got == preVal)
		var newState bool
		if op.Delete {
			newState = !ok
		} else {
			newState = ok && got == op.Value
		}
		if !oldState && !newState {
			t.Fatalf("point %d: in-flight key %d inconsistent: got (%d,%v), old=(%d,%v), new=(del=%v val=%d)",
				point, k, got, ok, preVal, preOK, op.Delete, op.Value)
		}
	}
	// Structure is sound: the scan must be sorted.
	out := make([]KV, 400)
	n := w2.Scan(1, 400, out)
	var prev uint64
	for i := 0; i < n; i++ {
		if out[i].Key <= prev {
			t.Fatalf("point %d: scan disorder after recovery", point)
		}
		prev = out[i].Key
	}
}

// TestBatchSurvivesGCCopyAfterGroupCommit pins the interleaving behind
// stale-value resurrection under ApplyBatch + locality-aware GC. A GC
// round flips the epoch before the batch reads it, and the round's
// scan reaches the key's buffer node after the group commit stamped
// its records but before the batch publishes its slot. The round's
// copy of the old buffered value then carries a newer tick than the
// batch's record, so the batch must re-log its run; otherwise recovery
// keeps the copy and the completed write reads back as its
// predecessor.
func TestBatchSurvivesGCCopyAfterGroupCommit(t *testing.T) {
	for name, mode := range map[string]pmem.Mode{"adr": pmem.ADR, "eadr": pmem.EADR} {
		pool := newTestPool(func(c *pmem.Config) { c.Mode = mode })
		opts := Options{ChunkBytes: 8 << 10, GC: GCLocalityAware}
		tr, err := New(pool, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.gcRunning.Store(true) // no background round: this test is the round
		w := tr.NewWorker(0)
		const key, oldVal, newVal = 42, 1001, 2002
		if err := w.Upsert(key, oldVal); err != nil {
			t.Fatal(err)
		}
		_, newE := tr.flipEpoch()
		gcw := tr.gcWorker()
		copied := false
		pool.FailWhen(func(fp pmem.FaultPoint) bool {
			// Act at the group commit's first record flush; chunk
			// registration flushes (TagMeta) run under the directory
			// lock the copy needs.
			if copied || fp.Tag != pmem.TagWAL {
				return false
			}
			copied = true // the copy's own flushes re-enter here
			n := tr.findBuffer(gcw.t, key)
			v, ok := n.tryLock()
			if !ok {
				t.Error("buffer node locked during the group commit")
				return false
			}
			if err := gcw.gcCopyLocked(n, newE); err != nil {
				t.Error(err)
			}
			n.unlock(v)
			return false
		})
		if err := w.ApplyBatch([]BatchOp{{Key: key, Value: newVal}}); err != nil {
			t.Fatal(err)
		}
		pool.FailWhen(nil)
		if !copied {
			t.Fatal("the batch issued no flush; the GC copy never ran")
		}
		if got, ok := w.Lookup(key); !ok || got != newVal {
			t.Fatalf("%s: before crash: Lookup = (%d,%v), want %d", name, got, ok, newVal)
		}
		tr.gcRunning.Store(false)
		tr.Freeze()
		pool.Crash()
		tr2, _, err := Open(pool, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := tr2.NewWorker(0).Lookup(key)
		tr2.Freeze()
		if !ok || got != newVal {
			t.Fatalf("%s: after recovery: key %d = (%d,%v), want the batch's %d, not the GC copy's %d",
				name, key, got, ok, newVal, oldVal)
		}
	}
}
