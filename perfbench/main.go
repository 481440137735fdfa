// Command perfbench is the repository benchmark. It runs one named workload
// through the library's public entry points for a fixed host-time budget,
// checks every output, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench -workload fig2_8mem -seed 1 -seconds 30 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 reports the per-layer
// metrics from a run that is half untraced, half traced (CPU profile folded
// by package, transparent Policy/Generator wrappers, NewSystem/RunContext
// split). BENCHMARK.json at the repository root lists both metric sets; see
// README.md in this directory for what each workload is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric; the lists below mirror BENCHMARK.json
// (TestMetricListsMatchBenchmarkJSON keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_s_p50", "s"},
	{"op_s_tail", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layers are the modules a CPU profile is folded into, in report order:
// the repository's packages, the Go runtime, net/http and encoding/json, the
// benchmark's own code, and everything else.
var layers = []string{"sim", "cpu", "cache", "memctrl", "sched", "dram", "stats",
	"trace", "xrand", "sweepd", "runtime", "json", "net", "bench", "other"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.skip_ratio", "ratio"},
		{"sim.window_coverage", "ratio"},
		{"sim.ticked_cycles", "cycles"},
		{"sim.host_ns_per_cycle", "ns"},
		{"sim.new_ms", "ms"},
		{"sim.run_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"trace.instrs", "count"},
		{"trace.next_ns", "ns"},
		{"sched.picks", "count"},
		{"sched.cands_per_pick", "count"},
		{"sched.pick_ns", "ns"},
		{"sched.melreq_gain_pct", "%"},
		{"cpu.retired", "count"},
		{"cpu.retire_stall_pct", "%"},
		{"cache.l2_mpki", "MPKI"},
		{"memctrl.reads", "count"},
		{"memctrl.writes", "count"},
		{"memctrl.drains", "count"},
		{"memctrl.read_queue_occ", "count"},
		{"memctrl.queue_delay_cycles", "cycles"},
		{"dram.row_hit_pct", "%"},
		{"dram.bus_util", "ratio"},
		{"sweepd.claim_ms_p50", "ms"},
		{"sweepd.claim_ms_p99", "ms"},
		{"sweepd.complete_ms_p50", "ms"},
		{"sweepd.submit_ms_p50", "ms"},
		{"sweepd.round_trips_per_job", "count"},
		{"sweepd.cache_hit_ratio", "ratio"},
		{"sweepd.failed_calls", "count"},
		{"sweepd.lost_leases", "count"},
		{"bench.trace_overhead_pct", "%"},
		{"host.gomaxprocs", "count"},
		{"host.num_cpu", "count"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	return defs
}()

// report is one workload run's outcome: op accounting plus metric values by
// name. Metrics a workload does not exercise stay 0 (e.g. sweepd.* on a
// simulation workload), so every run reports the full list.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are human-readable lines for standard error: host facts,
	// derived figures, and every failed check.
	notes []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed op and records why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.notef("FAIL: "+format, args...)
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	budget  time.Duration
	traced  bool
	profDir string // where traced runs write their CPU profile
	name    string
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, runConfig) (*report, error){
	"fig2_8mem":     runFig2,
	"profile_1core": runProfile1Core,
	"sweepd_stub":   runSweepdStub,
}

func main() {
	name := flag.String("workload", "", "workload to run: fig2_8mem, profile_1core or sweepd_stub")
	seed := flag.Uint64("seed", 0, "input seed; 0 selects the library's ProfileSeed/EvalSeed")
	seconds := flag.Int("seconds", 10, "host seconds to measure for")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for CPU profiles of traced runs")
	flag.Parse()

	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, profDir: *out, name: *name}
	steal0, total0, statErr := cpuTicks()
	rep, err := drive(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if steal1, total1, err := cpuTicks(); statErr == nil && err == nil && total1 > total0 {
		rep.notef("host CPU steal during the run: %.1f%%",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	rep.metrics["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	rep.metrics["host.num_cpu"] = float64(runtime.NumCPU())
	if rss, err := peakRSSMB(); err == nil {
		rep.metrics["peak_rss_mb"] = rss
	} else {
		rep.fail("reading peak RSS: %v", err)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line, err := resultLine(rep, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %d trace %d\n",
		*name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(os.Stderr, "host: GOMAXPROCS=%d NumCPU=%d %s %s/%s\n", runtime.GOMAXPROCS(0),
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON object for the given metric list.
func resultLine(rep *report, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{rep.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return string(b), nil
}
