// Command perfbench is the repository's host benchmark: four seeded,
// long-running workloads over the FlexSFP simulator, control plane and
// fleet controller, each reporting end-to-end host metrics (untraced) or
// a per-layer split (traced). See README.md for the workloads, metrics
// and how to run it.
//
//	perfbench --workload nat64 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
// A human-readable table goes to standard error. A failed correctness
// check prints the object with "correct": false and exits with code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// traceDir receives the sampled span dumps of traced runs.
const traceDir = ".bench_build/traces"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics maps metric names to their values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:   *seed,
		shards: runtime.GOMAXPROCS(0), // at most nproc threads of load
		dur:    time.Duration(*seconds * float64(time.Second)),
	}

	var rep report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, cfg, traceDir)
	} else {
		rep, err = runPlain(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", *name, rep.Correct, rep.Attempted, rep.Failed)
	printTable(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printTable writes the metrics, sorted by name, to standard error.
func printTable(m metrics) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-40s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
