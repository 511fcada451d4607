// Command schedbench is the repository's benchmark: it runs one named
// workload against the scheduling library or the in-process scheduling
// service, checks every answer, and prints its metrics as one JSON object
// on the last line of standard output. See README.md for the workloads and
// the metrics each layer should move.
//
//	go run . --workload paper-mcs --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// Apart from setup_s, the times are CPU time of the benchmark process (see
// cpuTime); the wall-clock figures go to the report line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"schedules_per_cpu_s", "1/s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_tail_ms", "ms"},
	{"mcs_cpu_ms.alg1", "ms"},
	{"mcs_cpu_ms.alg2", "ms"},
	{"mcs_cpu_ms.alg3", "ms"},
	{"mcs_cpu_ms.ghc", "ms"},
	{"slots_total", "slots"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reads 0, and the report line says so.
var perLayer = []metricDef{
	{"distnet.rounds_per_slot", "rounds"},
	{"distnet.messages_per_slot", "messages"},
	{"distnet.election_ms", "ms"},
	{"core.oneshot_ms.alg1", "ms"},
	{"core.oneshot_ms.alg2", "ms"},
	{"core.oneshot_ms.alg3", "ms"},
	{"core.oneshot_ms.ghc", "ms"},
	{"core.mcs_self_ms", "ms"},
	{"core.growth.max_radius", "hops"},
	{"core.growth.coordinators", "count"},
	{"graph.build_ms", "ms"},
	{"graph.edges", "count"},
	{"graph.max_degree", "count"},
	{"model.build_ms", "ms"},
	{"deploy.generate_ms", "ms"},
	{"verify.schedule_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.verify_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookups", "count"},
	{"serve.cache_evictions", "count"},
	{"serve.solves", "count"},
	{"serve.singleflight_merged", "count"},
	{"serve.rejected", "count"},
	{"loadgen.late_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.self_sum_share", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(string, runConfig) (*outcome, error){
	"paper-mcs":  runOffline,
	"dense-mcs":  runOffline,
	"serve-zipf": runServe,
}

// setupRuns is how many times a run sets up its workload; setup_s is the
// median, so one slow set-up does not read as a regression.
const setupRuns = 3

// spansDir receives the spans of traced runs, relative to the checkout.
const spansDir = ".bench_build/spans"

type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload runner measured.
type outcome struct {
	attempted, failed int
	errors            []string  // the first failures, for the report
	setups            []float64 // CPU seconds of each set-up, at the reference speed
	e2e, layers       map[string]float64
	absent            map[string]string // why a layer metric reads 0, where not obvious
	report            map[string]any
	rec               *recorder
}

func newOutcome() *outcome {
	return &outcome{
		e2e: map[string]float64{}, layers: map[string]float64{},
		absent: map[string]string{}, report: map[string]any{},
	}
}

// note records a correctness failure.
func (o *outcome) note(err error) {
	if len(o.errors) < 20 {
		o.errors = append(o.errors, err.Error())
	}
}

// gc records the collector's work between two MemStats reads.
func (o *outcome) gc(before, after *runtime.MemStats) {
	o.layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	o.layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-mcs, dense-mcs or serve-zipf")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced configuration and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if err := checkName("workload", *workload); err != nil || !ok {
		fmt.Fprintf(stderr, "schedbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "schedbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	// One P: with a second one idle, the runtime spends it on spinning
	// threads and idle-priority collector work, and the process CPU time
	// an operation reads then depends on whether the machine had a CPU to
	// spare. Every solve is sequential anyway; Alg. 3's node goroutines
	// interleave on the one P.
	runtime.GOMAXPROCS(1)

	out, err := runner(*workload, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: %s: %v\n", *workload, err)
		return 1
	}
	out.e2e["setup_s"] = median(out.setups)
	out.e2e["max_rss_mb"] = maxRSSMB()
	if out.attempted > 0 {
		out.report["error_share"] = metricValue{Value: float64(out.failed) / float64(out.attempted), Unit: "ratio"}
	}

	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	res := result{
		Correct:   out.failed == 0 && len(out.errors) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	absent := map[string]string{}
	for _, d := range defs {
		if err := checkName("metric", d.name); err != nil {
			fmt.Fprintf(stderr, "schedbench: %v\n", err)
			return 1
		}
		v, ok := values[d.name]
		finite := !math.IsNaN(v) && !math.IsInf(v, 0)
		switch {
		case !cfg.trace && (!ok || !finite):
			fmt.Fprintf(stderr, "schedbench: %s: no finite value for %s\n", *workload, d.name)
			return 1
		case !ok:
			absent[d.name] = out.absent[d.name]
			if absent[d.name] == "" {
				absent[d.name] = "layer not exercised by " + *workload
			}
		case !finite:
			v = 0
			absent[d.name] = "no samples in this run"
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(absent) > 0 {
		out.report["absent"] = absent
	}
	if cfg.trace && out.rec != nil {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "schedbench: %v\n", err)
			return 1
		}
		if err := out.rec.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "schedbench: %v\n", err)
			return 1
		}
		out.report["spans_file"] = path
	}
	out.report["workload"] = *workload
	out.report["seed"] = *seed
	out.report["seconds"] = *seconds
	out.report["trace"] = *trace
	out.report["num_cpu"] = runtime.NumCPU()
	out.report["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.report["go_version"] = runtime.Version()
	out.report["setup_s_runs"] = out.setups
	if len(out.errors) > 0 {
		out.report["errors"] = out.errors
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": out.report}); err != nil {
		fmt.Fprintf(stderr, "schedbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "schedbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "schedbench: %s: %d of %d operations failed\n", *workload, out.failed, out.attempted)
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// meanSpanMS is the mean duration of the spans called name.
func meanSpanMS(spans []span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, ms(s.dur()))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return mean(ds)
}

// cpuTime is the CPU time this process has used so far, user and system,
// over all its threads. The wall clock also counts time the process spends
// waiting for a CPU that another process, or another tenant of the host,
// holds; on a shared two-vCPU machine that wait moved whole runs by 20-30%.
// CPU time leaves it out, including the host's steal time where the kernel
// accounts for it (paravirtual steal clock). It still counts the work of
// every goroutine, so Alg. 3's parallel node steps and the collector's
// background marking are part of an operation's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the peak resident set of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
