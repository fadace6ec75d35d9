// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the pipeline from outside, through the packages' public calls,
// on three named workloads:
//
//	paper-suite    the six Table 2 applications at the default scale, all
//	               versions, at 1 and then 4 processors (exp.RunSuite, Jobs 1)
//	replay-stream  a seeded multi-tenant binary trace replayed out of core
//	               under NoPM, TPM and DRPM (trace.NewReader → sim.RunStream)
//	dpcd-mix       an in-process dpcd server on loopback HTTP under two
//	               closed-loop clients: cached re-simulations plus a stream
//	               of programs the artifact cache has not seen
//
// With -trace 0 it measures the end-to-end metrics with no per-layer timing;
// with -trace 1 it makes a separate traced run and reports the per-layer
// ledger. Every output it times is checked; the last line of stdout is one
// JSON object {correct, attempted, failed, metrics}. The exit code is
// non-zero when a check fails or the run cannot complete.
//
// Usage (from the repository root; see README.md in this directory):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"paper-suite", runPaperSuite},
	{"replay-stream", runReplayStream},
	{"dpcd-mix", runDPCDMix},
}

// setupRepeats is how many times a run repeats its workload's set-up; it
// reports the median.
const setupRepeats = 9

// runConfig is what the command line hands a workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_heap_mib", "MiB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order. A
// workload that never calls a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"parser.parse_s", "s"},
	{"sema.analyze_s", "s"},
	{"layout.new_s", "s"},
	{"interp.space_s", "s"},
	{"interp.validate_s", "s"},
	{"interp.deps_s", "s"},
	{"core.new_s", "s"},
	{"core.attribute_s", "s"},
	{"core.schedule_s", "s"},
	{"par.partition_s", "s"},
	{"trace.phases_s", "s"},
	{"trace.generate_s", "s"},
	{"sim.prepare_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.replay_mreq_s", "Mreq/s"},
	{"trace.decode_mreq_s", "Mreq/s"},
	{"sim.stream_nopm_s", "s"},
	{"sim.stream_tpm_s", "s"},
	{"sim.stream_drpm_s", "s"},
	{"trace.bytes_per_req", "B/req"},
	{"exp.prepare_s", "s"},
	{"exp.run_version_s", "s"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.compiles_total", "count"},
	{"server.evictions", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_tail_ms", "ms"},
	{"server.hit_tail_pct", "%"},
	{"server.hit_samples", "count"},
	{"server.miss_p50_ms", "ms"},
	{"server.miss_tail_ms", "ms"},
	{"server.miss_tail_pct", "%"},
	{"server.miss_samples", "count"},
	{"interp.deps.alloc_mib", "MiB"},
	{"interp.deps.allocs", "count"},
	{"core.schedule.alloc_mib", "MiB"},
	{"core.schedule.allocs", "count"},
	{"trace.generate.alloc_mib", "MiB"},
	{"trace.generate.allocs", "count"},
	{"sim.prepare.alloc_mib", "MiB"},
	{"sim.prepare.allocs", "count"},
	{"trace.requests", "count"},
	{"sim.requests", "count"},
	{"core.disk_runs", "count"},
	{"sim.spin_ups", "count"},
	{"sim.speed_shifts", "count"},
	{"ledger.wall_s", "s"},
	{"ledger.residue_s", "s"},
	{"bench.trace_overhead_s", "s"},
	{"bench.error_rate", "ratio"},
}

// outcome is what a workload run produced: its check tally and the metric
// values it measured, keyed by metric name.
type outcome struct {
	checks  checks
	metrics map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line: the last line of stdout.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// buildResult selects the metric set the mode reports. Every end-to-end
// metric must have been measured; a per-layer metric the workload did not
// exercise is reported as 0.
func buildResult(o *outcome, traced bool) (resultJSON, error) {
	res := resultJSON{
		Correct:   o.checks.failed == 0 && o.checks.attempted > 0,
		Attempted: o.checks.attempted,
		Failed:    o.checks.failed,
		Metrics:   make(map[string]metricJSON),
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		o.metrics["bench.error_rate"] = o.checks.errorRate()
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: paper-suite, replay-stream, or dpcd-mix")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 makes a traced run and reports the per-layer ledger")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (paper-suite, replay-stream, dpcd-mix), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	o, err := w.run(runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := buildResult(o, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	o.checks.report(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
