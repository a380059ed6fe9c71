package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"cclbtree"
	"cclbtree/internal/pmem"
)

// params fixes one run of one workload.
type params struct {
	seed    uint64
	seconds float64 // length of the timed phase
	traced  bool
	base    time.Time // zero of span times
	size    int       // workload size; 0 takes the workload's default
}

func (p params) sizeOr(def int) int {
	if p.size > 0 {
		return p.size
	}
	return def
}

const (
	clients   = 2 // closed-loop client goroutines: nproc on the reference host
	setupReps = 3 // timed set-ups per run; setup_s is their median
	reopens   = 3 // timed reopenings of the crash image; recover_s is their median
)

// outcome is what one run of a workload measured.
type outcome struct {
	attempted, failed uint64 // client requests, and those that returned an error
	faults            faults
	windows           []window
	setup             []float64 // seconds per timed set-up
	recovers          []float64 // seconds per timed reopen after a crash
	heapMB            float64
	counts            counts // counter deltas over the timed phase(s)

	ops, writes float64 // keys operated on, pairs written
	vtNS        float64 // virtual elapsed time: the slowest session or lane, summed over ingest rounds
	vtBusyNS    float64 // virtual time summed over sessions or lanes
	liveKeys    float64
	dram, pm    float64 // DB.MemoryUsage at the end of the timed phase
	peakLog     float64 // DB.PeakLogBytes
	server      map[string]float64
	spans       []span
	opens       []openSpan
	cpu, alloc  counts // per package, traced runs only
	recorders   uint64 // recorders handed out, numbering span ids
}

// openSpan is one timed recovery.
type openSpan struct {
	start, end int64
	stats      cclbtree.RecoveryStats
}

func newOutcome() *outcome {
	return &outcome{counts: counts{}, cpu: counts{}, alloc: counts{}}
}

// phase runs body as (part of) the timed phase against db and folds
// the counter deltas, heap peak and, when traced, the CPU and
// allocation profiles into o.
func (o *outcome) phase(db *cclbtree.DB, traced bool, body func()) error {
	runtime.GC() // start from the DB alone, not the garbage of set-up
	var allocBefore counts
	if traced {
		allocBefore = allocByPackage()
	}
	before := capture(db)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	hp := startHeapPeak()
	body()
	if traced {
		pprof.StopCPUProfile()
	}
	o.counts.add(capture(db).sub(before))
	peak := hp.done()
	runtime.GC()
	o.heapMB = max(o.heapMB, peak, float64(liveHeapBytes())/(1<<20))
	d, p := db.MemoryUsage()
	o.dram, o.pm = float64(d), float64(p)
	o.peakLog = max(o.peakLog, float64(db.PeakLogBytes()))
	if traced {
		cpu, err := cpuByPackage(prof.Bytes())
		if err != nil {
			return err
		}
		o.cpu.add(cpu)
		o.alloc.add(allocByPackage().sub(allocBefore))
	}
	return nil
}

// setUp times setupReps builds of the workload's DB and returns the
// last. An untimed warm-up New runs first: a process's first DB gets
// lazily mapped memory the runtime knows is zero, while every later one
// reuses freed heap that New must zero, so without the warm-up the
// first timed build would read far lower than the rest.
func (o *outcome) setUp(cfg cclbtree.Config, build func() (*cclbtree.DB, error)) (*cclbtree.DB, error) {
	db, err := cclbtree.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupReps; i++ {
		db.Close()
		db = nil // unreachable before the collection, so build reuses its heap
		runtime.GC()
		t0 := time.Now()
		if db, err = build(); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	return db, nil
}

// crashRecover power-fails the pool under db, saves the crash image
// and reopens it reopens times, each on a fresh pool loaded with the
// image as a restarted process would see it, timing each Open. Every
// reopening replays the same logs, so recover_s is a median over equal
// work. It returns the last reopened DB.
func (o *outcome) crashRecover(db *cclbtree.DB, cfg cclbtree.Config, base time.Time) (*cclbtree.DB, error) {
	pool := db.Pool()
	db.Close()
	pool.Crash()
	images := make([]sparseImage, pool.Sockets())
	for i := range images {
		if err := pool.SavePersistent(i, &images[i]); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	platform := pool.Config()
	db, pool = nil, nil
	for r := 0; r < reopens; r++ {
		if db != nil {
			db.Close()
			db = nil
		}
		runtime.GC() // keep a collection of the previous pool out of the timing
		pool := pmem.NewPool(platform)
		for i := range images {
			if err := pool.LoadPersistent(i, images[i].reader()); err != nil {
				return nil, fmt.Errorf("recover: %w", err)
			}
		}
		t0 := time.Now()
		ndb, st, err := cclbtree.OpenWithStats(pool, cfg, 1)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		db = ndb
		o.recovers = append(o.recovers, t1.Sub(t0).Seconds())
		o.opens = append(o.opens, openSpan{start: t0.Sub(base).Nanoseconds(), end: t1.Sub(base).Nanoseconds(), stats: *st})
	}
	return db, nil
}

// sparseImage is a device image as Pool.SavePersistent writes it, with
// each all-zero chunk (most of a device is never written) kept as its
// length only.
type sparseImage struct{ chunks [][]byte }

var zeroChunk = make([]byte, 64<<10)

func (m *sparseImage) Write(p []byte) (int, error) {
	if len(p) <= len(zeroChunk) && bytes.Equal(p, zeroChunk[:len(p)]) {
		m.chunks = append(m.chunks, zeroChunk[:len(p):len(p)])
	} else {
		m.chunks = append(m.chunks, bytes.Clone(p))
	}
	return len(p), nil
}

// reader replays the image for Pool.LoadPersistent.
func (m *sparseImage) reader() io.Reader {
	rs := make([]io.Reader, len(m.chunks))
	for i, c := range m.chunks {
		rs[i] = bytes.NewReader(c)
	}
	return io.MultiReader(rs...)
}

// verify runs the durability and output check on the recovered DB.
func (o *outcome) verify(db *cclbtree.DB, acked []uint64) {
	slices.Sort(acked)
	acked = slices.Compact(acked)
	o.faults.add(checkStore(db.Session(0), acked))
}

// endToEnd reduces the outcome to the end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	thr, p50, p99 := windowStats(o.windows)
	m := map[string]float64{
		"throughput_ops_s": thr,
		"latency_p50_us":   p50,
		"latency_p99_us":   p99,
		"heap_mb":          o.heapMB,
		"setup_s":          median(o.setup),
		"recover_s":        median(o.recovers),
		"ok_frac":          1 - ratio(float64(o.failed), float64(o.attempted)),
	}
	m["vt_throughput_mops"] = ratio(o.ops, o.vtNS) * 1e3
	m["write_amp"] = ratio(o.counts["pmem.media_write"], userBytes*o.writes)
	m["space_amp"] = ratio(o.pm, userBytes*o.liveKeys)
	return m
}

// perLayer reduces a traced outcome to the per-layer metrics.
func (o *outcome) perLayer() map[string]float64 {
	d := o.counts
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	for k, v := range o.server {
		m[k] = v
	}
	lat := map[uint8][]float64{}
	for _, s := range o.spans {
		lat[s.op] = append(lat[s.op], float64(s.end-s.start)/1e3)
	}
	p50 := func(op uint8) float64 { return median(lat[op]) }
	m["server.put_us_p50"] = p50(opServerPut)
	m["server.get_us_p50"] = p50(opServerGet)
	m["cclbtree.put_us_p50"] = p50(opPut)
	m["cclbtree.get_us_p50"] = p50(opGet)
	m["cclbtree.apply_us_p50"] = p50(opApply)
	m["cclbtree.scan_us_p50"] = p50(opScan)
	m["cclbtree.vt_ns_per_op"] = ratio(o.vtBusyNS, o.ops)

	m["core.buffer_hit_rate"] = ratio(d["core.buffer_hits"], d["core.lookups"])
	m["core.read_retries_per_lookup"] = ratio(d["core.read_retries"], d["core.lookups"]+d["core.scans"])
	m["core.trigger_writes_per_op"] = ratio(d["core.trigger_writes"], o.ops)
	m["core.logged_writes_per_op"] = ratio(d["core.logged_writes"], o.ops)
	m["core.skipped_logs_per_op"] = ratio(d["core.skipped_logs"], o.ops)
	m["core.splits"] = d["core.splits"]
	m["core.gc_runs"] = d["core.gc_runs"]
	m["core.gc_copied_entries"] = d["core.gc_copied"]
	m["core.batch_relogs"] = d["core.batch_relogs"]
	m["core.epoch_reclaims"] = d["core.epoch_reclaims"]
	m["core.dram_bytes_per_key"] = ratio(o.dram, o.liveKeys)
	r := o.opens[len(o.opens)-1].stats // every reopening replays the same image
	m["core.recovery.entries_replayed"] = float64(r.EntriesReplayed)
	m["core.recovery.chunks_scanned"] = float64(r.ChunksScanned)
	m["core.recovery.vt_ms"] = float64(r.VirtualNS) / 1e6
	vtShares(d, m)

	m["wal.media_bytes_per_op"] = ratio(d["pmem.scope.wal"], o.ops)
	m["wal.peak_log_mb"] = o.peakLog / (1 << 20)
	m["pmalloc.pm_bytes_per_key"] = ratio(o.pm, o.liveKeys)

	m["pmem.media_write_bytes_per_op"] = ratio(d["pmem.media_write"], o.ops)
	for _, s := range mediaScopes {
		m["pmem.media_write_bytes."+s.String()] = ratio(d["pmem.scope."+s.String()], o.ops)
	}
	m["pmem.xpbuf_write_bytes_per_op"] = ratio(d["pmem.xpbuf_write"], o.ops)
	m["pmem.cli_amp"] = ratio(d["pmem.xpbuf_write"], userBytes*o.writes)
	m["pmem.xpbuf_write_hit_rate"] = ratio(d["pmem.xpbuf_write_hits"], d["pmem.xpbuf_write_hits"]+d["pmem.xpbuf_write_misses"])
	m["pmem.media_read_bytes_per_op"] = ratio(d["pmem.media_read"], o.ops)
	m["pmem.xpbuf_read_hit_rate"] = ratio(d["pmem.xpbuf_read_hits"], d["pmem.xpbuf_read_hits"]+d["pmem.xpbuf_read_misses"])
	m["pmem.remote_accesses_per_op"] = ratio(d["pmem.remote"], o.ops)

	m["go.allocs_per_op"] = ratio(d["rt.allocs"], o.ops)
	m["go.alloc_bytes_per_op"] = ratio(d["rt.alloc_bytes"], o.ops)
	m["go.gc_cpu_frac"] = ratio(d["rt.gc_cpu_s"], d["rt.total_cpu_s"])
	m["go.sched_latency_p99_us"] = schedP99(d)

	cpu, alloc := byLayer(o.cpu), byLayer(o.alloc)
	for _, l := range []string{"server", "cclbtree", "core", "wal", "pmem", "go"} {
		m[l+".cpu_self_frac"] = cpu[l]
	}
	m["pmem.alloc_bytes_frac"] = alloc["pmem"]
	return m
}

// byLayer folds per-package totals into per-layer shares.
func byLayer(pkgs counts) map[string]float64 {
	out := map[string]float64{}
	for pkg, v := range shares(pkgs) {
		if l := layerOf(pkg); l != "" {
			out[l] += v
		}
	}
	return out
}
