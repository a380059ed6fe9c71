package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"cclbtree"
	"cclbtree/internal/pmem"
)

// plantedReader serves reads from a real store but breaks one key: it
// either drops it or returns a wrong value for it.
type plantedReader struct {
	reader
	key  uint64
	drop bool
}

func (p plantedReader) Get(key uint64) (uint64, bool) {
	v, ok := p.reader.Get(key)
	if key != p.key {
		return v, ok
	}
	if p.drop {
		return 0, false
	}
	return v ^ 2, ok
}

// smallStore returns a session over a small DB holding n keys, and the
// keys sorted.
func smallStore(t *testing.T, n int) (*cclbtree.Session, []uint64) {
	t.Helper()
	db, err := cclbtree.New(cclbtree.Config{Shards: 2, Platform: pmem.Config{DeviceBytes: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	s := db.Session(0)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyOf(uint64(i + 1))
		if err := s.Put(keys[i], valueFor(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(keys)
	return s, keys
}

// fails reports whether a run whose check found f is failed: the same
// verdict main acts on.
func fails(f faults) bool {
	o := newOutcome()
	o.faults = f
	return !summarize(io.Discard, "test", "untraced", []*outcome{o}, nil, nil).Correct
}

func TestCheckerCatchesPlantedFaults(t *testing.T) {
	s, keys := smallStore(t, 2000)
	if f := checkStore(s, keys); f.any() || fails(f) {
		t.Fatalf("clean store: %+v", f)
	}
	victim := keys[len(keys)/2]
	cases := []struct {
		name        string
		r           reader
		lost, wrong uint64
	}{
		{"dropped acknowledged key", plantedReader{reader: s, key: victim, drop: true}, 1, 0},
		{"wrong value", plantedReader{reader: s, key: victim}, 0, 1},
	}
	for _, c := range cases {
		f := checkStore(c.r, keys)
		if f.lost != c.lost || f.wrong != c.wrong {
			t.Errorf("%s: got %+v, want lost %d wrong %d", c.name, f, c.lost, c.wrong)
		}
		if !fails(f) {
			t.Errorf("%s: the run passed", c.name)
		}
	}
	// The ordered walk must hold exactly the acknowledged keys: a key
	// missing from the acknowledged set reads as one the store invented.
	if f := checkStore(s, append(slices.Clone(keys[:10]), keys[11:]...)); f.wrong != 1 {
		t.Errorf("unacknowledged key in the store: got %+v", f)
	}
}

func TestCheckScan(t *testing.T) {
	want := []uint64{3, 5, 9}
	kv := func(keys ...uint64) []cclbtree.KV {
		var out []cclbtree.KV
		for _, k := range keys {
			out = append(out, cclbtree.KV{Key: k, Value: valueFor(k)})
		}
		return out
	}
	if f := checkScan(kv(3, 5, 9), want); f.any() {
		t.Errorf("exact scan: %+v", f)
	}
	if f := checkScan(kv(3, 9), want); !f.any() {
		t.Error("scan that skipped a key passed")
	}
	if f := checkScan(kv(5, 3, 9), want); !f.any() {
		t.Error("out-of-order scan passed")
	}
	bad := kv(3, 5, 9)
	bad[1].Value++
	if f := checkScan(bad, want); f.wrong != 1 {
		t.Errorf("wrong scanned value: %+v", f)
	}
}

// TestIngestDeterministic pins that one ingest_batch session repeats its
// virtual-clock and device numbers exactly for a seed, with log
// reclamation running, and that another seed changes the input.
func TestIngestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 400k keys twice")
	}
	p := params{seed: 7, seconds: 1e-9, base: time.Now(), size: 400_000}
	a, err := ingestBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ingestBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.counts["core.gc_runs"] == 0 {
		t.Fatal("no GC round ran; the test would not cover log reclamation")
	}
	ea, eb := a.endToEnd(), b.endToEnd()
	for _, m := range []string{"vt_throughput_mops", "write_amp", "space_amp"} {
		if ea[m] != eb[m] {
			t.Errorf("%s: %v then %v", m, ea[m], eb[m])
		}
	}
	for k, v := range a.counts {
		if (k[:5] == "core." || k[:5] == "pmem.") && b.counts[k] != v {
			t.Errorf("%s: %v then %v", k, v, b.counts[k])
		}
	}
	if slices.Equal(ingestKeysFor(7, 1000), ingestKeysFor(8, 1000)) {
		t.Error("seeds 7 and 8 give the same keys")
	}
}

// TestWorkloadsSmoke runs every workload briefly at a small size with
// tracing on, through the durability check and the trace files.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several 512 MB pools per workload")
	}
	for _, w := range workloads {
		o, err := w.run(params{seed: 3, seconds: 0.5, traced: true, base: time.Now(), size: 20_000})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if o.faults.any() || o.failed > 0 || o.attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed, faults %+v", w.name, o.attempted, o.failed, o.faults)
		}
		m := o.perLayer()
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want the %d BENCHMARK.json names", w.name, len(m), len(perLayer))
		}
		if m["core.cpu_self_frac"] == 0 || m["pmem.media_write_bytes_per_op"] == 0 {
			t.Errorf("%s: core CPU share %v, media bytes/op %v", w.name, m["core.cpu_self_frac"], m["pmem.media_write_bytes_per_op"])
		}
		if err := writeTrace(t.TempDir(), w.name, o); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workload and
// metric lists in step with what the benchmark runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}
	for _, c := range []struct {
		what string
		json []def
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.defs {
			want = append(want, def{d.name, d.unit, d.better})
			if c.what == "per_layer" && d.moves == "" {
				t.Errorf("%s does not say which end-to-end metric it should move", d.name)
			}
		}
		if !slices.Equal(c.json, want) {
			t.Errorf("%s: BENCHMARK.json %v\nbenchmark %v", c.what, c.json, want)
		}
	}
}
