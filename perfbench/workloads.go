package main

import (
	"fmt"
	mrand "math/rand"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cclbtree"
	"cclbtree/internal/server"
	"cclbtree/internal/workload"
)

// workloadDef is one traffic mix. BENCHMARK.json records why each was
// chosen and which layers it loads or bypasses.
type workloadDef struct {
	name string
	run  func(p params) (*outcome, error)
}

var workloads = []workloadDef{
	{"serve_upsert", serveUpsert},
	{"ingest_batch", ingestBatch},
	{"read_zipf", readZipf},
}

// Default sizes, chosen on a 2-CPU host so a run stays well under its
// time limit while each working set dwarfs the modeled XPBuffer.
const (
	serveKeySpace = 1 << 20   // serve_upsert draws keys from this many
	ingestKeys    = 1_000_000 // ingest_batch inserts this many per round
	ingestBatchN  = 32
	ingestWindow  = 100_000 // ingest_batch closes a window every this many keys
	zipfKeys      = 500_000 // read_zipf preloads this many
	zipfScanLen   = 100
)

// serveUpsert drives the serving tier with closed-loop clients, then
// closes the server, power-fails the pool and reopens the DB.
func serveUpsert(p params) (*outcome, error) {
	cfg := cclbtree.Config{Shards: 2, Metrics: p.traced}
	o := newOutcome()
	db, err := o.setUp(cfg, func() (*cclbtree.DB, error) { return cclbtree.New(cfg) })
	if err != nil {
		return nil, fmt.Errorf("serve_upsert: %w", err)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return nil, fmt.Errorf("serve_upsert: %w", err)
	}
	n := uint64(p.sizeOr(serveKeySpace))
	acked := make([]atomic.Uint64, (n+63)/64) // bit i: a Put of keyOf(i+1) was acknowledged
	before := srv.Stats()
	err = o.phase(db, p.traced, func() {
		o.runClients(p, func(c int, rec *recorder, r *clientResult, end time.Time) {
			rng := rand.New(rand.NewPCG(p.seed, uint64(c)))
			for t0 := time.Now(); t0.Before(end); {
				i := rng.Uint64N(n)
				key := keyOf(i + 1)
				word, bit := &acked[i/64], uint64(1)<<(i%64)
				r.attempted++
				if rng.Uint32N(10) == 0 {
					known := word.Load()&bit != 0
					v, ok, err := srv.Get(key)
					t1 := time.Now()
					rec.record(opServerGet, t0, t1, 1)
					t0 = t1
					if err != nil {
						r.failed++
						continue
					}
					r.faults.add(checkGet(key, v, ok, known))
					continue
				}
				err := srv.Put(key, valueFor(key))
				t1 := time.Now()
				rec.record(opServerPut, t0, t1, 1)
				t0 = t1
				if err != nil {
					r.failed++
					continue
				}
				word.Or(bit)
				r.writes++
			}
		})
	})
	if err != nil {
		return nil, err
	}
	after := srv.Stats()
	srv.Close()

	var ops, batches, busiest float64
	for i, l := range after.Lanes {
		laneOps := float64(l.Ops - before.Lanes[i].Ops)
		vt := float64(l.VirtualNS - before.Lanes[i].VirtualNS)
		ops += laneOps
		batches += float64(l.Batches - before.Lanes[i].Batches)
		busiest = max(busiest, laneOps)
		o.vtNS = max(o.vtNS, vt)
		o.vtBusyNS += vt
	}
	// Reads run on pool sessions whose clocks the server does not
	// expose, so the slowest lane is the workload's virtual elapsed time.
	o.server = map[string]float64{
		"server.avg_batch":           ratio(ops, batches),
		"server.lane_vt_busy_max_ms": o.vtNS / 1e6,
		"server.lane_imbalance":      ratio(busiest, ops/float64(len(after.Lanes))),
		"server.rejected":            float64(after.Rejected - before.Rejected),
	}
	var keys []uint64
	for i := uint64(0); i < n; i++ {
		if acked[i/64].Load()&(1<<(i%64)) != 0 {
			keys = append(keys, keyOf(i+1))
		}
	}
	o.liveKeys = float64(len(keys))
	o.ops = float64(o.windowKeys())
	if db, err = o.crashRecover(db, cfg, p.base); err != nil {
		return nil, err
	}
	o.verify(db, keys)
	db.Close()
	return o, nil
}

// ingestKeysFor is the ingest_batch input: n clustered, shuffled keys.
func ingestKeysFor(seed uint64, n int) []uint64 {
	return workload.Keys(workload.DatasetAmzn, n, int64(seed))
}

// ingestBatch inserts the whole key set into a fresh single-shard DB
// per round, repeating rounds until the timed phase is spent. The
// session waits for any log-reclamation round a batch starts, so the
// GC goroutine never races it for the modeled DIMMs and every round's
// virtual-clock and device numbers repeat exactly.
func ingestBatch(p params) (*outcome, error) {
	cfg := cclbtree.Config{Shards: 1, Metrics: p.traced}
	keys := ingestKeysFor(p.seed, p.sizeOr(ingestKeys))
	o := newOutcome()
	db, err := o.setUp(cfg, func() (*cclbtree.DB, error) { return cclbtree.New(cfg) })
	if err != nil {
		return nil, fmt.Errorf("ingest_batch: %w", err)
	}
	var spent time.Duration
	for round := 0; ; round++ {
		if round > 0 {
			if db, err = cclbtree.New(cfg); err != nil {
				return nil, fmt.Errorf("ingest_batch: %w", err)
			}
		}
		s := db.Session(0)
		var (
			r   clientResult
			rec *recorder
		)
		vt0 := s.Now()
		err = o.phase(db, p.traced, func() {
			start := time.Now()
			rec = o.newRecorder(p, start, 0, 1)
			var b cclbtree.Batch
			for i := 0; i < len(keys); i += ingestBatchN {
				if i > 0 && i%ingestWindow == 0 {
					rec.cut(time.Now(), true)
				}
				b.Reset()
				for _, k := range keys[i:min(i+ingestBatchN, len(keys))] {
					b.Put(k, valueFor(k))
				}
				t0 := time.Now()
				err := s.Apply(&b)
				rec.record(opApply, t0, time.Now(), b.Len())
				db.WaitGC()
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				r.writes += uint64(b.Len())
			}
			end := time.Now()
			rec.cut(end, false)
			spent += end.Sub(start)
		})
		if err != nil {
			return nil, err
		}
		o.collect([]*recorder{rec}, []clientResult{r})
		vt := float64(s.Now() - vt0)
		o.vtNS += vt
		o.vtBusyNS += vt
		if spent.Seconds() >= p.seconds {
			break
		}
		db.Close()
	}
	o.ops = o.writes
	o.liveKeys = float64(len(keys))
	if db, err = o.crashRecover(db, cfg, p.base); err != nil {
		return nil, err
	}
	o.verify(db, slices.Clone(keys))
	db.Close()
	return o, nil
}

// readZipf runs skewed reads, scans and updates over a preloaded DB,
// then power-fails the pool and reopens the DB.
func readZipf(p params) (*outcome, error) {
	cfg := cclbtree.Config{Shards: 2, Metrics: p.traced}
	n := p.sizeOr(zipfKeys)
	// The Zipf generator's rank r names keyOf(r), so preloading ranks
	// 1..n makes every drawn key present.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyOf(uint64(i + 1))
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	o := newOutcome()
	db, err := o.setUp(cfg, func() (*cclbtree.DB, error) { return preload(cfg, keys) })
	if err != nil {
		return nil, fmt.Errorf("read_zipf: %w", err)
	}

	zipf := workload.NewZipf(uint64(n), 0.99)
	vts := make([]float64, clients)
	err = o.phase(db, p.traced, func() {
		o.runClients(p, func(c int, rec *recorder, r *clientResult, end time.Time) {
			s := db.Session(c % db.Pool().Sockets())
			rng := mrand.New(mrand.NewSource(int64(p.seed)*clients + int64(c)))
			out := make([]cclbtree.KV, zipfScanLen)
			vt0 := s.Now()
			for t0 := time.Now(); t0.Before(end); {
				key := zipf.Next(rng)
				r.attempted++
				switch u := rng.Intn(100); {
				case u < 90:
					v, ok := s.Get(key)
					t1 := time.Now()
					rec.record(opGet, t0, t1, 1)
					t0 = t1
					r.faults.add(checkGet(key, v, ok, true))
				case u < 95:
					got := out[:s.Scan(key, out)]
					t1 := time.Now()
					// A scan is one operation, as a YCSB range query is.
					rec.record(opScan, t0, t1, 1)
					t0 = t1
					i, _ := slices.BinarySearch(sorted, key)
					r.faults.add(checkScan(got, sorted[i:min(i+zipfScanLen, n)]))
				default:
					err := s.Put(key, valueFor(key))
					t1 := time.Now()
					rec.record(opPut, t0, t1, 1)
					t0 = t1
					if err != nil {
						r.failed++
						continue
					}
					r.writes++
				}
			}
			vts[c] = float64(s.Now() - vt0)
		})
	})
	if err != nil {
		return nil, err
	}
	o.vtNS = slices.Max(vts)
	for _, vt := range vts {
		o.vtBusyNS += vt
	}
	o.ops = float64(o.windowKeys())
	o.liveKeys = float64(n)
	if db, err = o.crashRecover(db, cfg, p.base); err != nil {
		return nil, err
	}
	o.verify(db, sorted)
	db.Close()
	return o, nil
}

// preload builds a DB holding keys, written by parallel sessions in
// Apply batches.
func preload(cfg cclbtree.Config, keys []uint64) (*cclbtree.DB, error) {
	db, err := cclbtree.New(cfg)
	if err != nil {
		return nil, err
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := db.Session(c % db.Pool().Sockets())
			var b cclbtree.Batch
			for i := c * ingestBatchN; i < len(keys); i += clients * ingestBatchN {
				b.Reset()
				for _, k := range keys[i:min(i+ingestBatchN, len(keys))] {
					b.Put(k, valueFor(k))
				}
				if err := s.Apply(&b); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return db, nil
}

// clientResult is one client's request accounting.
type clientResult struct {
	attempted, failed, writes uint64
	faults                    faults
}

// runClients runs the closed-loop clients for the timed phase, in
// about one-second windows, and folds their logs into o.
func (o *outcome) runClients(p params, client func(c int, rec *recorder, r *clientResult, end time.Time)) {
	n := max(1, int(p.seconds+0.5))
	width := time.Duration(p.seconds*float64(time.Second)) / time.Duration(n)
	start := time.Now()
	end := start.Add(width * time.Duration(n))
	recs := make([]*recorder, clients)
	res := make([]clientResult, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = o.newRecorder(p, start, width, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client(c, recs[c], &res[c], end)
		}(c)
	}
	wg.Wait()
	o.collect(recs, res)
}

// collect folds the clients' recorders and accounting into o.
func (o *outcome) collect(recs []*recorder, res []clientResult) {
	o.windows = append(o.windows, mergeWindows(recs)...)
	for _, r := range recs {
		o.spans = append(o.spans, r.spans...)
	}
	for _, r := range res {
		o.attempted += r.attempted
		o.failed += r.failed
		o.writes += float64(r.writes)
		o.faults.add(r.faults)
	}
}

// windowKeys is the number of keys operated on in the timed phase.
func (o *outcome) windowKeys() uint64 {
	var n uint64
	for _, w := range o.windows {
		n += w.keys
	}
	return n
}
