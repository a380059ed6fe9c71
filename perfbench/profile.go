package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
)

// layerOf maps a Go package path to the benchmark layer it belongs to,
// or "" for packages outside the request path (the benchmark itself,
// obs, the standard library).
func layerOf(pkg string) string {
	switch pkg {
	case "cclbtree/internal/server":
		return "server"
	case "cclbtree":
		return "cclbtree"
	case "cclbtree/internal/core":
		return "core"
	case "cclbtree/internal/wal":
		return "wal"
	case "cclbtree/internal/pmalloc":
		return "pmalloc"
	case "cclbtree/internal/pmem":
		return "pmem"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "go"
	}
	return ""
}

// funcPackage extracts the package path from a symbol name such as
// "cclbtree/internal/core.(*Worker).Upsert" or "slices.Sort[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// cpuByPackage decodes a runtime/pprof CPU profile (gzipped protobuf)
// and returns self-time samples per package: each sample is charged
// to the innermost function of its first location.
func cpuByPackage(gz []byte) (counts, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → innermost function id
		fnName  = map[uint64]int64{}  // function id → string table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, first is the leaf
					ids, err := varints(v, b)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
					return err
				case 2: // value: [samples, cpu ns]
					vals, err := varints(v, b)
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined call
					if fn == 0 {
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := counts{}
	for _, s := range samples {
		name := ""
		if i, ok := fnName[locFn[s.loc]]; ok && i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[funcPackage(name)] += float64(s.count)
	}
	return out, nil
}

// eachField walks one protobuf message. For varint fields f gets the
// value; for length-delimited fields it gets the bytes (and v = 0).
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("unknown wire type")
		}
	}
	return nil
}

// varints returns a repeated varint field's values whether it was
// written unpacked (one value v, b nil) or packed (b holds the values).
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// allocByPackage returns the heap-profile bytes allocated so far,
// charged to the package of the innermost non-runtime frame (the code
// that asked for the memory). The profile is sampled and published at
// garbage collections, so callers run runtime.GC first.
func allocByPackage() counts {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	out := counts{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		pkg := ""
		for {
			fr, more := frames.Next()
			pkg = funcPackage(fr.Function)
			if pkg != "runtime" || !more {
				break
			}
		}
		out[pkg] += float64(r.AllocBytes)
	}
	return out
}

// runtimeSample reads the runtime/metrics the go layer reports.
var runtimeSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

// readRuntime adds the cumulative runtime counters to c under "rt.*"
// keys, with the scheduling-latency histogram as one key per bucket.
func readRuntime(c counts) {
	metrics.Read(runtimeSample)
	c["rt.allocs"] = float64(runtimeSample[0].Value.Uint64())
	c["rt.alloc_bytes"] = float64(runtimeSample[1].Value.Uint64())
	c["rt.gc_cpu_s"] = runtimeSample[2].Value.Float64()
	c["rt.total_cpu_s"] = runtimeSample[3].Value.Float64()
	h := runtimeSample[4].Value.Float64Histogram()
	for i, n := range h.Counts {
		c[fmt.Sprintf("rt.sched.%d", i)] = float64(n)
	}
}

// schedP99 returns the 99th-percentile scheduling latency in µs from
// the bucket deltas in c, taking each bucket's upper bound.
func schedP99(c counts) float64 {
	metrics.Read(runtimeSample[4:5])
	bounds := runtimeSample[4].Value.Float64Histogram().Buckets
	var total float64
	for i := 0; i+1 < len(bounds); i++ {
		total += c[fmt.Sprintf("rt.sched.%d", i)]
	}
	if total == 0 {
		return 0
	}
	var cum float64
	for i := 0; i+1 < len(bounds); i++ {
		cum += c[fmt.Sprintf("rt.sched.%d", i)]
		if cum >= 0.99*total {
			hi := bounds[i+1]
			if hi > 1e9 { // +Inf top bucket
				hi = bounds[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// liveHeapBytes is the heap marked live by the most recent collection.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
