package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"memsched"
	"memsched/internal/memctrl"
	"memsched/internal/sim"
	"memsched/internal/sweepd"
)

// The policy tap must keep the controller on its indexed fast path.
var _ memctrl.IndexedPolicy = (*policyTap)(nil)

func TestFoldTop(t *testing.T) {
	for _, tc := range []struct {
		file string
		want map[string]time.Duration // layer -> folded flat time
	}{
		{"testdata/pprof_top_sweepd_stub.txt", map[string]time.Duration{
			"json": 940 * time.Millisecond, "net": 330 * time.Millisecond,
			"runtime": 1910 * time.Millisecond, "sweepd": 90 * time.Millisecond,
			"bench": 30 * time.Millisecond, "other": 400 * time.Millisecond,
		}},
		{"testdata/pprof_top_profile_1core.txt", map[string]time.Duration{
			"cpu": 720 * time.Millisecond, "cache": 680 * time.Millisecond,
			"runtime": 740 * time.Millisecond, "xrand": 310 * time.Millisecond,
			"trace": 280 * time.Millisecond, "stats": 220 * time.Millisecond,
			"memctrl": 210 * time.Millisecond, "sim": 110 * time.Millisecond,
			"dram": 40 * time.Millisecond, "sched": 10 * time.Millisecond,
			"json": 10 * time.Millisecond, "bench": 10 * time.Millisecond,
			"other": 50 * time.Millisecond,
		}},
	} {
		text, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := foldTop(string(text))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		var sum time.Duration
		for l, d := range lp.flat {
			sum += d
			if d.Round(time.Millisecond) != tc.want[l] {
				t.Errorf("%s: layer %s folded %v, want %v", tc.file, l, d, tc.want[l])
			}
		}
		if sum.Round(time.Millisecond) != lp.total {
			t.Errorf("%s: layers sum to %v of %v total", tc.file, sum, lp.total)
		}
	}
	if _, err := foldTop("File: x\nType: cpu\n"); err == nil {
		t.Error("foldTop accepted output without samples")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"memsched/internal/cache.(*Cache).Access":          "memsched/internal/cache",
		"memsched/internal/sim.(*System).RunContext.func1": "memsched/internal/sim",
		"runtime.mallocgc":                                       "runtime",
		"runtime.nextFreeFast (inline)":                          "runtime",
		"aeshashbody":                                            "runtime",
		"internal/runtime/syscall.Syscall6":                      "internal/runtime/syscall",
		"net/http.(*conn).serve":                                 "net/http",
		"encoding/json.appendString[go.shape.string]":            "encoding/json",
		"slices.SortFunc[go.shape.*memsched/internal/sweepd.t]":  "slices",
		"crypto/internal/fips140/sha256.blockSHANI":              "crypto/internal/fips140/sha256",
		"main.(*genTap).Next":                                    "main",
		"memsched/internal/memctrl.(*Controller).pick":           "memsched/internal/memctrl",
		"memsched/internal/sched.(*MELREQ).PickIndexed (inline)": "memsched/internal/sched",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWrapperTransparency runs short 2-core runs with and without the taps,
// on the serial loop and with parallel windows forced on, and requires
// identical Results under zero tolerance.
func TestWrapperTransparency(t *testing.T) {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for _, pol := range []string{"hf-rf", "me-lreq"} {
		for _, par := range []int{1, 2} {
			opts := memsched.Options{Policy: pol, Apps: apps, Seed: memsched.EvalSeed, ParallelCores: par}
			want := runOpts(t, opts, n)
			traced, tp, err := withTaps(opts)
			if err != nil {
				t.Fatal(err)
			}
			got := runOpts(t, traced, n)
			if d := sim.DiffResults(got, want, 0); len(d) > 0 || got.SkippedCycles != want.SkippedCycles {
				t.Errorf("%s parallel=%d: traced run differs: %v (skipped %d vs %d)",
					pol, par, d, got.SkippedCycles, want.SkippedCycles)
			}
			if tp.policy.picks == 0 || tp.gens[0].calls < n {
				t.Errorf("%s parallel=%d: taps saw %d picks, %d instructions", pol, par,
					tp.policy.picks, tp.gens[0].calls)
			}
		}
	}
}

func runOpts(t *testing.T, opts memsched.Options, n uint64) memsched.Result {
	t.Helper()
	sys, err := memsched.NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepChecksCatchDroppedOutcome(t *testing.T) {
	jobs := newJobGen(7).sweep()
	out := sweepd.OutcomesResponseV1{Done: true}
	for _, j := range jobs {
		out.Outcomes = append(out.Outcomes, sweepd.OutcomeV1{ID: j.ID, Key: j.Key, Value: stubValue})
	}
	if bad := checkSweep(jobs, out); bad != 0 {
		t.Fatalf("complete sweep flagged %d bad jobs", bad)
	}

	dropped := out
	dropped.Outcomes = slices.Clone(out.Outcomes)
	dropped.Outcomes[3] = sweepd.OutcomeV1{}
	if bad := checkSweep(jobs, dropped); bad != 1 {
		t.Errorf("dropped outcome: %d bad jobs, want 1", bad)
	}
	if bad := checkSweep(jobs, sweepd.OutcomesResponseV1{Done: true, Outcomes: out.Outcomes[:len(jobs)-1]}); bad != 1 {
		t.Errorf("truncated outcomes: %d bad jobs, want 1", bad)
	}
	wrong := out
	wrong.Outcomes = slices.Clone(out.Outcomes)
	wrong.Outcomes[0].Value = json.RawMessage(`{}`)
	if bad := checkSweep(jobs, wrong); bad != 1 {
		t.Errorf("wrong payload: %d bad jobs, want 1", bad)
	}

	// 250 jobs: 180 executed, 50 cache hits, 20 coalesced.
	st := sweepd.StatsV1{Executed: 180, CacheHits: 50, Coalesced: 20}
	if gap := accountingGap(st, 250, 180); gap != 0 {
		t.Errorf("balanced accounting has gap %d", gap)
	}
	// One execution whose outcome never reached the coordinator.
	st.Executed--
	if gap := accountingGap(st, 250, 180); gap == 0 {
		t.Error("accounting check missed a dropped outcome")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
	// Blocks 1..40, 41..80 and 81..120 have tails 30, 70 and 110; the
	// partial block 121..125 is dropped.
	long := append([]float64(nil), xs...)
	for i := 41; i <= 125; i++ {
		long = append(long, float64(i))
	}
	if v, p, n := blockTail(long, 40); v != 70 || p != 75 || n != 3 {
		t.Errorf("blockTail of 1..125 by 40 = %v at p%v over %d blocks, want 70 at p75 over 3", v, p, n)
	}
	if v, p, n := blockTail(xs[:30], 40); v != 20 || p != 100*20/30.0 || n != 1 {
		t.Errorf("blockTail of 1..30 by 40 = %v at p%v over %d blocks, want tail(1..30) as one block", v, p, n)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestHeldOutSeed runs every workload briefly on a seed not used while the
// benchmark was tuned; every check must pass and every metric be positive.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const seed = 424242
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: seed, budget: time.Second, traced: traced, profDir: t.TempDir(), name: name}
			rep, err := workloads[name](context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", name, traced, rep.failed, rep.attempted, rep.notes)
			}
			if !traced {
				for _, d := range endToEnd {
					if d.name != "peak_rss_mb" && !(rep.metrics[d.name] > 0) {
						t.Errorf("%s: %s = %v", name, d.name, rep.metrics[d.name])
					}
				}
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames())
	}
	for _, c := range []struct {
		label string
		json  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", c.label, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)", c.label, i,
					c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
