package sim_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"memsched/internal/config"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// fixOrderFor returns a fixed-priority policy spec matching the core count
// (the fix policy encodes exactly one priority digit per core).
func fixOrderFor(cores int) string {
	order := ""
	for i := cores - 1; i >= 0; i-- {
		order += fmt.Sprintf("%d", i)
	}
	return "fix:" + order
}

// alternatingClasses returns a class spec marking every even core
// latency-critical ("LB", "LBLB", "LBLBLBLB").
func alternatingClasses(cores int) string {
	return strings.Repeat("LB", cores/2)
}

// diffPolicies lists every registered policy for a core count.
func diffPolicies(cores int) []string {
	return []string{"fcfs", "hf-rf", "rr", "lreq", "me", "me-lreq", "fq", "burst", "bliss", "cads", "dash", fixOrderFor(cores)}
}

// diffMixes maps each differential core count to its memory-bound mix.
var diffMixes = []struct {
	cores int
	mix   string
}{{2, "2MEM-1"}, {4, "4MEM-1"}, {8, "8MEM-4"}}

// TestSkipDifferential is the correctness contract of quiescence-aware cycle
// skipping: for randomized stimulus across every registered policy at 2, 4
// and 8 cores, classless and with alternating LC/BE serving classes, a run
// with next-event time advance must produce a Result identical to the naive
// cycle-by-cycle loop (which also scans every controller channel every
// cycle), floats included: every per-cycle sample enters an integer
// accumulator, so bulk absorption is exact. The classed arm pins the
// per-class latency histograms embedded in the Result and dash's deadline
// decisions. The stressed-machine arm pins skips over requests parked on a
// full L2 miss file, and guards that such skips actually happen.
func TestSkipDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation pairs")
	}
	type diffCase struct {
		mix     string
		policy  string
		online  bool
		classes string
		machine string // stressMachine override ("" = Table 1 default)
	}
	var cases []diffCase
	for _, m := range diffMixes {
		for _, pol := range diffPolicies(m.cores) {
			cases = append(cases,
				diffCase{mix: m.mix, policy: pol},
				diffCase{mix: m.mix, policy: pol, classes: alternatingClasses(m.cores)})
		}
	}
	// One online-estimator case exercises the epoch-boundary wakeup path; a
	// lone LC tenant gives the deadline-aware policy its most lopsided mix.
	cases = append(cases,
		diffCase{mix: "4MEM-1", policy: "me-lreq", online: true},
		diffCase{mix: "4MEM-1", policy: "dash", classes: "LBBB"})
	// Stressed machines keep L2 requests parked on a full L2 miss file or a
	// rejecting controller read queue for most of the run. The 8-core arms
	// leave out l2mshr8-port1: with 8 L2 MSHRs behind one port, 8MEM-4 under
	// hf-rf and dash never finishes its last core within the 200 cycles per
	// instruction bound, and under fcfs never finishes warmup, in both run
	// modes (an open ROADMAP item).
	for _, machine := range []string{"l2mshr8-port1", "rq12-pend6"} {
		cases = append(cases,
			diffCase{mix: "4MEM-1", policy: "hf-rf", machine: machine},
			diffCase{mix: "4MEM-1", policy: "me-lreq", machine: machine})
	}
	cases = append(cases,
		diffCase{mix: "8MEM-4", policy: "hf-rf", machine: "rq12-pend6"},
		diffCase{mix: "8MEM-4", policy: "hf-rf", machine: "pf-rq10"},
		diffCase{mix: "8MEM-4", policy: "me-lreq", machine: "pf-rq10"})

	// Randomized stimulus: each case gets two seeds from a fixed-source
	// stream, so the workloads differ run to run of the matrix but the test
	// stays reproducible.
	rng := rand.New(rand.NewSource(0x5EED))
	var totalSkipped atomic.Int64
	for _, c := range cases {
		for s := 0; s < 2; s++ {
			c, seed := c, rng.Uint64()
			name := c.mix + "/" + c.policy
			if c.online {
				name += "/online"
			}
			if c.classes != "" {
				name += "/" + c.classes
			}
			if c.machine != "" {
				name += "/" + c.machine
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(c.mix)
				if err != nil {
					t.Fatal(err)
				}
				classes, err := workload.ParseServiceClasses(c.classes, len(mix.Codes))
				if err != nil {
					t.Fatal(err)
				}
				var cfg *config.Config
				if c.machine != "" {
					cfg = stressMachine(c.machine, len(mix.Codes))
				}
				run := func(noSkip bool) sim.Result {
					// The generous MaxCycles covers strict fixed priority at 8
					// memory-bound cores, which starves its lowest core far past
					// the default bound (in both run modes alike).
					res, err := sim.Run(context.Background(), sim.RunSpec{
						Mix: mix, Policy: c.policy, Instr: 3_000, Seed: seed,
						OnlineME: c.online, NoCycleSkip: noSkip, Classes: classes,
						Config: cfg, MaxCycles: 20_000_000,
					})
					if err != nil {
						t.Fatalf("seed %#x noSkip=%v: %v", seed, noSkip, err)
					}
					return res
				}
				skipped, naive := run(false), run(true)
				if naive.SkippedCycles != 0 {
					t.Errorf("NoCycleSkip run reported %d skipped cycles", naive.SkippedCycles)
				}
				for _, d := range sim.DiffResults(skipped, naive, 0) {
					t.Error(d)
				}
				totalSkipped.Add(skipped.SkippedCycles)
				// Requests parked on a full L2 miss file set no wake-up time,
				// so the MSHR-limited machine must skip most of its stalls;
				// polling them every cycle would skip almost none.
				if ratio := float64(skipped.SkippedCycles) / float64(skipped.TotalCycles); c.machine == "l2mshr8-port1" && ratio < 0.3 {
					t.Errorf("skipped %d of %d cycles (%.0f%%), want >= 30%% with the L2 miss file full",
						skipped.SkippedCycles, skipped.TotalCycles, 100*ratio)
				}
			})
		}
	}
	t.Cleanup(func() {
		// The property is vacuous if no case ever skipped a cycle.
		if totalSkipped.Load() == 0 {
			t.Error("no case skipped any cycle; next-event advance never engaged")
		}
	})
}

// TestParallelDifferential pins the deprecated Options.ParallelCores knob as
// inert over the same policy × core-count matrix: the parallel-window mode it
// selected is gone, so a run that sets it must equal one that does not, with
// zero float tolerance and the same SkippedCycles.
func TestParallelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulation pairs")
	}
	type knobCase struct {
		cores  int
		mix    string
		policy string
		online bool
	}
	var cases []knobCase
	for _, m := range diffMixes {
		for _, pol := range diffPolicies(m.cores) {
			cases = append(cases, knobCase{cores: m.cores, mix: m.mix, policy: pol})
		}
	}
	cases = append(cases, knobCase{cores: 4, mix: "4MEM-1", policy: "me-lreq", online: true})

	rng := rand.New(rand.NewSource(0x5EED))
	for _, c := range cases {
		for s := 0; s < 2; s++ {
			c, seed := c, rng.Uint64()
			name := fmt.Sprintf("%dcores/%s/seed%d", c.cores, c.policy, s)
			classSpec := ""
			if s == 1 {
				classSpec = alternatingClasses(c.cores)
				name += "/classed"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByName(c.mix)
				if err != nil {
					t.Fatal(err)
				}
				apps, err := mix.Apps()
				if err != nil {
					t.Fatal(err)
				}
				classes, err := workload.ParseServiceClasses(classSpec, c.cores)
				if err != nil {
					t.Fatal(err)
				}
				run := func(parallel int) sim.Result {
					sys, err := sim.New(sim.Options{
						Policy: c.policy, Apps: apps, Seed: seed, Classes: classes,
						OnlineME: c.online, ParallelCores: parallel,
					})
					if err != nil {
						t.Fatal(err)
					}
					res, err := sys.Run(3_000, 20_000_000)
					if err != nil {
						t.Fatalf("seed %#x parallel=%d: %v", seed, parallel, err)
					}
					if w, cyc := sys.ParallelWindows(); w != 0 || cyc != 0 {
						t.Errorf("ParallelWindows() = (%d, %d), want (0, 0)", w, cyc)
					}
					return res
				}
				plain, knob := run(0), run(3)
				for _, d := range sim.DiffResults(knob, plain, 0) {
					t.Error(d)
				}
				if knob.SkippedCycles != plain.SkippedCycles {
					t.Errorf("SkippedCycles %d with the knob, %d without", knob.SkippedCycles, plain.SkippedCycles)
				}
			})
		}
	}
}
