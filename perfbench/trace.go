package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// maxSpans caps the request spans written per run: a read_zipf run
// makes millions, which would make a file of hundreds of megabytes.
const maxSpans = 200_000

// writeTrace writes a traced run's client-side spans and its profile
// shares under dir/<workload>/:
//
//	spans.csv     id,op,start_ns,end_ns,detail — requests, evenly
//	              sampled down to maxSpans, then every timed Open with
//	              its recovery statistics
//	profile.json  CPU self-time and allocated-bytes shares per package,
//	              and how many spans were recorded and written
func writeTrace(dir, name string, o *outcome) error {
	dir = filepath.Join(dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans.csv"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,op,start_ns,end_ns,detail")
	stride := (len(o.spans) + maxSpans - 1) / maxSpans
	written := 0
	for i := 0; i < len(o.spans); i += stride {
		s := o.spans[i]
		fmt.Fprintf(w, "%d,%s,%d,%d,\n", s.id, opNames[s.op], s.start, s.end)
		written++
	}
	for i, s := range o.opens {
		r := s.stats
		fmt.Fprintf(w, "%d,cclbtree.open,%d,%d,leaves=%d chunks_scanned=%d entries_seen=%d entries_replayed=%d entries_stale=%d entries_dropped=%d vt_ns=%d\n",
			uint64(1)<<63|uint64(i), s.start, s.end, r.Leaves, r.ChunksScanned, r.EntriesSeen, r.EntriesReplayed, r.EntriesStale, r.EntriesDropped, r.VirtualNS)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	prof, err := json.MarshalIndent(map[string]any{
		"cpu_self_share":    shares(o.cpu),
		"alloc_bytes_share": shares(o.alloc),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile.json"), prof, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// shares normalizes per-package totals to fractions of the program's
// total: the benchmark's own code and the profiler that records the
// trace are left out, so tracing does not dilute the layers' shares.
func shares(pkgs counts) map[string]float64 {
	var total float64
	for pkg, v := range pkgs {
		if !harness[pkg] {
			total += v
		}
	}
	out := map[string]float64{}
	for pkg, v := range pkgs {
		if !harness[pkg] {
			out[pkg] = ratio(v, total)
		}
	}
	return out
}

var harness = map[string]bool{"main": true, "runtime/pprof": true, "compress/flate": true, "compress/gzip": true}
