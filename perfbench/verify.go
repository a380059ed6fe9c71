package main

import (
	"iter"
	"slices"

	"cclbtree"
)

// reader is the read side the durability check needs. *cclbtree.Session
// satisfies it; the planted-fault tests substitute faulty ones.
type reader interface {
	Get(key uint64) (uint64, bool)
	Range(start uint64) iter.Seq2[uint64, uint64]
}

// faults counts reads that broke the store's contract. Any nonzero
// count fails the run: it is a correctness failure, not a shed or
// errored request.
type faults struct {
	lost  uint64 // an acknowledged key read back missing
	wrong uint64 // a value other than valueFor(key), a key out of order, or a key never written
}

func (f *faults) add(o faults) {
	f.lost += o.lost
	f.wrong += o.wrong
}

func (f faults) any() bool { return f.lost+f.wrong > 0 }

// checkGet classifies one point read. acked reports whether the key's
// write was acknowledged before the read began, so it must be found.
func checkGet(key, v uint64, ok, acked bool) faults {
	switch {
	case ok && v != valueFor(key):
		return faults{wrong: 1}
	case !ok && acked:
		return faults{lost: 1}
	}
	return faults{}
}

// checkScan compares a scan's result with want, the keys the store
// holds from the scan's start on, in order (the store's key set does
// not change while the scan runs).
func checkScan(got []cclbtree.KV, want []uint64) faults {
	var f faults
	if len(got) < len(want) {
		f.lost += uint64(len(want) - len(got))
	}
	for i, p := range got {
		if i >= len(want) || p.Key != want[i] || p.Value != valueFor(p.Key) {
			f.wrong++
		}
	}
	return f
}

// checkStore is the end-of-run durability and output check, run on the
// store reopened after a crash: every acknowledged key must read back
// valueFor(key), and a full ordered walk must see exactly the
// acknowledged keys, ascending, each with its value. Point reads count
// lost keys; every way the walk disagrees counts as wrong output.
// acked must be sorted ascending and duplicate-free.
func checkStore(r reader, acked []uint64) faults {
	var f faults
	for _, k := range acked {
		v, ok := r.Get(k)
		f.add(checkGet(k, v, ok, true))
	}
	i := 0
	for k, v := range r.Range(0) {
		if v != valueFor(k) {
			f.wrong++
		}
		if i < len(acked) && k == acked[i] {
			i++
			continue
		}
		// k is not the next acknowledged key: it is out of order, was
		// never written, or the walk skipped acked[i:j].
		j, found := slices.BinarySearch(acked, k)
		if !found || j < i {
			f.wrong++
			continue
		}
		f.wrong += uint64(j - i)
		i = j + 1
	}
	if i < len(acked) {
		f.wrong += uint64(len(acked) - i)
	}
	return f
}
