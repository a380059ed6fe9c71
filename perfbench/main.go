// Command perfbench is the repository's end-to-end benchmark. It drives
// the store through its public entry points (internal/server's Server,
// the cclbtree Session and Open) on three workloads, times every
// request on the host clock, reads the virtual PM clock and device
// counters from the public snapshots, power-fails and reopens the
// store, and checks every acknowledged write and every read.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve_upsert --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics. With --trace 1 the workload runs
// twice, each for half the time, untraced and then traced (Config.Metrics on,
// CPU profile, per-request spans), and the metrics are the per-layer
// ones, including trace.overhead_frac. The traced run writes its spans and
// profiles under --out. A lost or wrong value exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := fs.String("out", "", "directory for the traced run's spans and profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	p := params{seed: *seed, seconds: *seconds, base: time.Now()}

	var res result
	if *trace == 0 {
		o, err := w.run(p)
		if err != nil {
			return err
		}
		res = summarize(stdout, w.name, "untraced", []*outcome{o}, o.endToEnd(), endToEnd)
	} else {
		p.seconds /= 2
		plain, err := w.run(p)
		if err != nil {
			return err
		}
		base := plain.endToEnd()
		p.traced = true
		traced, err := w.run(p)
		if err != nil {
			return err
		}
		m := traced.perLayer()
		m["trace.overhead_frac"] = 1 - ratio(traced.endToEnd()["throughput_ops_s"], base["throughput_ops_s"])
		if *out != "" {
			if err := writeTrace(*out, w.name, traced); err != nil {
				return err
			}
		}
		res = summarize(stdout, w.name, "traced", []*outcome{plain, traced}, m, perLayer)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("durability or output check failed")
	}
	return nil
}

// summarize prints a readable report and builds the JSON result from
// the metrics named in defs.
func summarize(w io.Writer, name, mode string, runs []*outcome, values map[string]float64, defs []metricDef) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, o := range runs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		if o.faults.any() {
			res.Correct = false
			fmt.Fprintf(w, "%s: %d acknowledged keys lost, %d wrong values\n", name, o.faults.lost, o.faults.wrong)
		}
	}
	o := runs[len(runs)-1]
	samples := 0
	for _, win := range o.windows {
		samples += len(win.lat)
	}
	fmt.Fprintf(w, "%s (%s): %d requests, %d failed, %d latency samples in %d windows; set-ups %.4g s; reopens %.4g s\n",
		name, mode, o.attempted, o.failed, samples, len(o.windows), o.setup, o.recovers)
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, v, d.unit)
	}
	return res
}
