package pmem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// allocatedPages counts the media pages d has allocated so far.
func (d *device) allocatedPages() int {
	n := 0
	for i := range d.pages {
		if d.pages[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestFreshPoolAllocatesNoPages(t *testing.T) {
	p := NewPool(Config{})
	for _, d := range p.devs {
		if n := d.allocatedPages(); n != 0 {
			t.Fatalf("socket %d: fresh default pool holds %d media pages, want 0", d.id, n)
		}
	}
}

//persistlint:ignore PL001 volatile stores; only page allocation is under test
func TestUntouchedPagesReadZeroWithoutAllocating(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	far := MakeAddr(0, 3*pageBytes+512)
	dst := make([]uint64, 48) // crosses a page boundary
	avg := testing.AllocsPerRun(100, func() {
		if v := th.Load(far); v != 0 {
			t.Fatalf("Load of an unwritten page = %d, want 0", v)
		}
		th.ReadRange(MakeAddr(0, pageBytes-128), dst)
	})
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("ReadRange word %d = %d, want 0", i, v)
		}
	}
	if n := p.devs[0].allocatedPages(); n != 0 {
		t.Fatalf("loads allocated %d pages, want 0", n)
	}
	if avg != 0 && !raceTestEnabled {
		t.Fatalf("loads from unwritten pages allocate %.1f objects/op, want 0", avg)
	}
	// The first store allocates exactly the page it lands in.
	th.Store(far, 9)
	if n := p.devs[0].allocatedPages(); n != 1 {
		t.Fatalf("one store allocated %d pages, want 1", n)
	}
	if v := th.Load(far); v != 9 {
		t.Fatalf("Load after Store = %d, want 9", v)
	}
}

// TestCrashRestoresZeroPreImage: a line first written after the last
// fence has an all-zero pre-image, and the crash must put the zeros
// back while a persisted neighbour in the same page survives.
func TestCrashRestoresZeroPreImage(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	kept := MakeAddr(0, 2*pageBytes)
	lost := kept.Add(CachelineSize)
	th.Store(kept, 1)
	th.Persist(kept, WordSize)
	th.WriteRange(lost, []uint64{2, 3, 4, 5, 6, 7, 8, 9}) //persistlint:ignore PL001 rolled back by the crash under test
	p.Crash()
	th = p.NewThread(0)
	if v := th.Load(kept); v != 1 {
		t.Fatalf("persisted word = %d after crash, want 1", v)
	}
	got := make([]uint64, wordsPerLine)
	th.ReadRange(lost, got)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("unflushed word %d = %d after crash, want its zero pre-image", i, v)
		}
	}
}

func TestSaveLoadSparseRoundTrip(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	for _, off := range []uint64{0, pageBytes - WordSize, 5 * pageBytes, 9*pageBytes + 4096} {
		a := MakeAddr(0, off)
		th.Store(a, off+1)
		th.Persist(a, WordSize)
	}
	var img bytes.Buffer
	if err := p.SavePersistent(0, &img); err != nil {
		t.Fatal(err)
	}
	p2 := testPool(t, nil)
	if err := p2.LoadPersistent(0, bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := p2.devs[0].allocatedPages(); n != 3 {
		t.Fatalf("reloaded image holds %d pages, want the 3 written", n)
	}
	var again bytes.Buffer
	if err := p2.SavePersistent(0, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), again.Bytes()) {
		t.Fatal("Save→Load→Save image differs from the original")
	}

	var zero bytes.Buffer
	if err := testPool(t, nil).SavePersistent(0, &zero); err != nil {
		t.Fatal(err)
	}
	p3 := testPool(t, nil)
	if err := p3.LoadPersistent(0, &zero); err != nil {
		t.Fatal(err)
	}
	if n := p3.devs[0].allocatedPages(); n != 0 {
		t.Fatalf("loading an all-zero image allocated %d pages, want 0", n)
	}
}

// TestConcurrentFirstStoresShareOnePage races first stores into one
// fresh page; run under -race. A lost allocation CAS would drop words.
func TestConcurrentFirstStoresShareOnePage(t *testing.T) {
	const writers, each = 8, 64
	p := testPool(t, func(c *Config) { c.DisableCrashTracking = true })
	base := MakeAddr(0, 4*pageBytes)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := p.NewThread(0)
			for i := 0; i < each; i++ {
				a := base.Add(int64((i*writers + g) * WordSize))
				th.Store(a, uint64(g<<16|i+1))
				th.Persist(a, WordSize)
			}
		}(g)
	}
	wg.Wait()
	th := p.NewThread(0)
	for g := 0; g < writers; g++ {
		for i := 0; i < each; i++ {
			if v := th.Load(base.Add(int64((i*writers + g) * WordSize))); v != uint64(g<<16|i+1) {
				t.Fatalf("writer %d word %d = %#x, want %#x", g, i, v, g<<16|i+1)
			}
		}
	}
	if n := p.devs[0].allocatedPages(); n != 1 {
		t.Fatalf("first stores allocated %d pages, want 1", n)
	}
}

// TestSteadyStateAccessZeroAlloc gates the word-access and persistence
// primitives at zero allocations per op once their lines are dirty,
// their pages allocated and the pending-flush slice warm. check.sh
// greps the PMEM_ALLOCS lines.
//
//persistlint:ignore PL001 the Load/Store/WriteRange gates keep their lines dirty on purpose
func TestSteadyStateAccessZeroAlloc(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := testPool(t, nil)
	th := p.NewThread(0)
	a, b := MakeAddr(0, 4096), MakeAddr(0, 4096+XPLineSize)
	src := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var v uint64
	ops := []struct {
		name string
		fn   func()
	}{
		{"Load", func() { v += th.Load(a) }},
		{"Store", func() { th.Store(a, v) }},
		{"WriteRange", func() { th.WriteRange(b, src) }},
		{"Store+Flush+Fence", func() { th.Store(a, v); th.Flush(a, WordSize); th.Fence() }},
		{"WriteRange+Persist", func() { th.WriteRange(b, src); th.Persist(b, CachelineSize) }},
	}
	for _, op := range ops {
		op.fn() // warm: allocate the pages, grow the pending slice
	}
	th.Store(a, 1)
	th.WriteRange(b, src)
	for _, op := range ops {
		avg := testing.AllocsPerRun(1000, op.fn)
		fmt.Printf("PMEM_ALLOCS %s allocs_per_op=%.2f\n", op.name, avg)
		if avg != 0 {
			t.Errorf("steady-state %s allocates %.2f objects/op, want 0", op.name, avg)
		}
	}
	th.Persist(a, WordSize)
	th.Persist(b, CachelineSize)
}
