package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cclbtree"
	"cclbtree/internal/obs"
)

// counts is a bag of cumulative counters read from the public
// snapshots; subtracting two gives the activity of the phase between.
type counts map[string]float64

func (c counts) sub(o counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// capture reads the DB's device counters, tree counters, virtual-time
// segment sums (zero unless Config.Metrics is on) and the Go runtime
// counters.
func capture(db *cclbtree.DB) counts {
	c := counts{}
	st := db.Pool().Stats()
	c["pmem.media_write"] = float64(st.MediaWriteBytes)
	c["pmem.media_read"] = float64(st.MediaReadBytes)
	c["pmem.xpbuf_write"] = float64(st.XPBufWriteBytes)
	c["pmem.xpbuf_write_hits"] = float64(st.XPBufWriteHits)
	c["pmem.xpbuf_write_misses"] = float64(st.XPBufWriteMisses)
	c["pmem.xpbuf_read_hits"] = float64(st.XPBufReadHits)
	c["pmem.xpbuf_read_misses"] = float64(st.XPBufReadMisses)
	c["pmem.remote"] = float64(st.RemoteAccesses)
	for _, s := range mediaScopes {
		c["pmem.scope."+s.String()] = float64(st.MediaWriteByScope[s])
	}
	k := db.Metrics().Counters
	c["core.lookups"] = float64(k.Lookups)
	c["core.scans"] = float64(k.Scans)
	c["core.buffer_hits"] = float64(k.BufferHits)
	c["core.read_retries"] = float64(k.ReadRetries)
	c["core.trigger_writes"] = float64(k.TriggerWrites)
	c["core.logged_writes"] = float64(k.LoggedWrites)
	c["core.skipped_logs"] = float64(k.SkippedLogs)
	c["core.splits"] = float64(k.Splits)
	c["core.gc_runs"] = float64(k.GCRuns)
	c["core.gc_copied"] = float64(k.GCCopiedEntries)
	c["core.batch_relogs"] = float64(k.BatchRelogs)
	c["core.epoch_reclaims"] = float64(k.EpochReclaims)
	for i := 0; i < db.Shards(); i++ {
		for _, s := range db.ShardProfile(i).Segments {
			c["vt."+s.Op+"."+s.Segment] += float64(s.SumNS)
		}
	}
	readRuntime(c)
	return c
}

// Op kinds a client records. The names are the span names in the
// trace file: the layer whose public function was called, then the call.
const (
	opServerPut = iota
	opServerGet
	opPut
	opGet
	opScan
	opApply
	numOps
)

var opNames = [numOps]string{"server.put", "server.get", "cclbtree.put", "cclbtree.get", "cclbtree.scan", "cclbtree.apply"}

// span is one client request as the benchmark saw it.
type span struct {
	id         uint64
	op         uint8
	start, end int64 // ns since the run began
}

// window is one slice of a timed phase: a fixed wall-clock second on
// the long-running workloads, a fixed number of keys on ingest_batch.
type window struct {
	dur  time.Duration
	keys uint64   // keys operated on (an Apply of 32 counts 32)
	lat  []uint32 // request latencies in ns
}

// recorder is one client's log of a timed phase. Each client owns one,
// so recording takes no lock.
type recorder struct {
	base    time.Time     // run start, the zero of span times
	mark    time.Time     // start of the current window
	width   time.Duration // > 0: window i is [mark+i*width, mark+(i+1)*width)
	windows []window
	traced  bool
	client  uint64
	seq     uint64
	spans   []span
}

// newRecorder starts a log at start with n windows of width each, or
// with one open window that cut closes when width is 0. Each recorder
// gets its own client number, so span ids are unique in a run.
func (o *outcome) newRecorder(p params, start time.Time, width time.Duration, n int) *recorder {
	o.recorders++
	r := &recorder{base: p.base, mark: start, width: width, windows: make([]window, n), traced: p.traced, client: o.recorders}
	for i := range r.windows {
		r.windows[i].dur = width
	}
	return r
}

// record logs one request that operated on keys keys between t0 and t1.
// A request that ends after the last window counts in the last one.
func (r *recorder) record(op uint8, t0, t1 time.Time, keys int) {
	w := len(r.windows) - 1
	if r.width > 0 {
		w = min(max(int(t1.Sub(r.mark)/r.width), 0), w)
	}
	r.windows[w].keys += uint64(keys)
	r.windows[w].lat = append(r.windows[w].lat, uint32(min(t1.Sub(t0), math.MaxUint32)))
	if r.traced {
		r.seq++
		r.spans = append(r.spans, span{id: r.client<<48 | r.seq, op: op, start: t0.Sub(r.base).Nanoseconds(), end: t1.Sub(r.base).Nanoseconds()})
	}
}

// cut closes the open window at t and, if next, opens another.
func (r *recorder) cut(t time.Time, next bool) {
	r.windows[len(r.windows)-1].dur = t.Sub(r.mark)
	r.mark = t
	if next {
		r.windows = append(r.windows, window{})
	}
}

// mergeWindows combines the clients' logs window by window.
func mergeWindows(recs []*recorder) []window {
	out := make([]window, len(recs[0].windows))
	for i := range out {
		out[i].dur = recs[0].windows[i].dur
		for _, r := range recs {
			out[i].keys += r.windows[i].keys
			out[i].lat = append(out[i].lat, r.windows[i].lat...)
		}
	}
	return out
}

// windowStats reduces windows to the three host-clock end-to-end
// metrics, each the median over windows of that window's value, so a
// brief stall of the shared host moves one window and not the result.
func windowStats(ws []window) (throughput, p50us, p99us float64) {
	var thr, p50, p99 []float64
	for _, w := range ws {
		if len(w.lat) == 0 {
			continue
		}
		thr = append(thr, float64(w.keys)/w.dur.Seconds())
		slices.Sort(w.lat)
		p50 = append(p50, quantile(w.lat, 0.50)/1e3)
		p99 = append(p99, quantile(w.lat, 0.99)/1e3)
	}
	return median(thr), median(p50), median(p99)
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// heapPeak samples the live heap until stopped and reports the peak.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.peak.Store(liveHeapBytes())
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := liveHeapBytes(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// done stops sampling and returns the peak in MB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// Keys and values. Every value is a function of its key, so any read
// can be checked without shared state.

// keyOf maps an index to a scrambled nonzero key in the index-legal
// space (the same SplitMix64 finalizer the workload package uses).
func keyOf(i uint64) uint64 {
	x := i
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	x &= 1<<62 - 1
	if x == 0 {
		return 1
	}
	return x
}

// valueFor is the only value ever written for key: nonzero and clear
// of the tag bits the tree reserves for indirect values.
func valueFor(key uint64) uint64 { return keyOf(key^0x5bd1e995)&(1<<61-1) | 1 }

// userBytes is the payload of one written pair (8 B key + 8 B value).
const userBytes = 16

// vtShares turns the phase's virtual-time segment sums into each
// segment's share of its op class's attributed time.
func vtShares(d counts, m map[string]float64) {
	for op := obs.OpClass(0); op < obs.NumOpClasses; op++ {
		var total float64
		for seg := obs.Segment(0); seg < obs.NumSegments; seg++ {
			total += d["vt."+op.String()+"."+seg.String()]
		}
		for seg := obs.Segment(0); seg < obs.NumSegments; seg++ {
			m[vtShareName(op.String(), seg.String())] = ratio(d["vt."+op.String()+"."+seg.String()], total)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
