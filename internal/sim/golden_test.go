package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memsched/internal/config"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// -update-golden regenerates the fixtures under testdata/golden and
// testdata/golden_stress from the current implementation. The fixtures pin
// fixed-seed Results of every policy, so any change to modelled behaviour
// (candidate sets, tie-break RNG draws, completion ordering) fails the test.
// They were last regenerated when float statistics moved to exact integer
// accumulation, which changed only float last digits; every integer field
// stayed identical. The stressed-machine fixtures were recorded before
// blocked L2 requests moved off the event heap onto the hierarchy's parked
// list, and pin that the move changed no modelled field.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden equivalence fixtures")

// goldenFloatTol is the relative tolerance for float fields: none. Every
// statistic is accumulated in integers, so a Result is reproducible bit for
// bit. Comparison goes through sim.DiffResults, which exempts only
// SkippedCycles (it describes the run loop, not the simulated machine).
const goldenFloatTol = 0

const goldenInstr = 6_000

// goldenCase is one fixed-seed run whose Result is pinned.
type goldenCase struct {
	Mix     string
	Policy  string
	Classes string // serving classes ("" = classless), workload.ParseServiceClasses syntax
	Machine string // stressed machine override ("" = Table 1 default), see stressMachine
}

// stressMachine returns the Table 1 machine for cores with one of the named
// structural-hazard overrides applied. Each keeps a shared resource scarce so
// that requests block and retry for long stretches:
//   - "l2mshr8-port1": 8 L2 MSHRs behind one L2 port, so L1 misses queue on
//     a full L2 miss file most of the run;
//   - "rq12-pend6": a 12-entry controller read queue with at most 6 reads
//     per core, so L2 misses are rejected by the controller and retried;
//   - "pf-rq10": 16 L2 MSHRs, one port, L2 stream prefetch and a 10-entry
//     read queue, so prefetches compete with demand misses for both.
func stressMachine(name string, cores int) *config.Config {
	cfg := config.Default(cores)
	switch name {
	case "l2mshr8-port1":
		cfg.L2.MSHRs, cfg.L2PortsPerCycle = 8, 1
	case "rq12-pend6":
		cfg.L2.MSHRs, cfg.Memory.ReadQueueCap, cfg.Memory.MaxPendingPerCore = 48, 12, 6
	case "pf-rq10":
		cfg.L2.MSHRs, cfg.L2PortsPerCycle, cfg.L2StreamPrefetch, cfg.Memory.ReadQueueCap = 16, 1, true, 10
	default:
		panic("unknown stress machine " + name)
	}
	return &cfg
}

// goldenCases covers every registered policy, with the paper's four headline
// policies exercised at 2, 4 and 8 cores (write-drain bursts and bank
// contention differ qualitatively across core counts).
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, mix := range []string{"2MEM-1", "4MEM-1", "8MEM-4"} {
		for _, pol := range []string{"fcfs", "hf-rf", "lreq", "me-lreq"} {
			cases = append(cases, goldenCase{Mix: mix, Policy: pol})
		}
	}
	// Remaining registry entries once each, on the 4-core MEM mix.
	for _, pol := range []string{"rr", "me", "fq", "burst", "bliss", "cads", "dash", "fix:3210"} {
		cases = append(cases, goldenCase{Mix: "4MEM-1", Policy: pol})
	}
	// Mixed serving classes: the deadline-aware policy with a
	// latency-critical tenant, and a class-blind policy whose result gains
	// only the class labels and latency split.
	cases = append(cases,
		goldenCase{Mix: "4MEM-1", Policy: "dash", Classes: "LBBB"},
		goldenCase{Mix: "4MEM-1", Policy: "me-lreq", Classes: "LBLB"})
	// Stressed machines: long stretches of L1 misses blocked on the L2 port
	// and miss file, and L2 misses rejected by a full controller read queue.
	cases = append(cases,
		goldenCase{Mix: "4MEM-1", Policy: "me-lreq", Machine: "l2mshr8-port1"},
		goldenCase{Mix: "4MEM-1", Policy: "fcfs", Machine: "l2mshr8-port1"},
		goldenCase{Mix: "4MEM-1", Policy: "lreq", Machine: "rq12-pend6"},
		goldenCase{Mix: "8MEM-4", Policy: "me-lreq", Machine: "rq12-pend6"},
		goldenCase{Mix: "4MEM-1", Policy: "hf-rf", Machine: "pf-rq10"},
		goldenCase{Mix: "8MEM-4", Policy: "fcfs", Machine: "pf-rq10"})
	return cases
}

func goldenPath(c goldenCase) string {
	name := fmt.Sprintf("%s_%s", c.Mix, c.Policy)
	if c.Classes != "" {
		name += "_" + c.Classes
	}
	dir := "golden"
	if c.Machine != "" {
		// Kept apart from the default-machine fixtures, which
		// internal/runner replays on the default machine.
		name += "_" + c.Machine
		dir = "golden_stress"
	}
	name += ".json"
	for _, bad := range []string{":", "/"} {
		name = replaceAll(name, bad, "-")
	}
	return filepath.Join("testdata", dir, name)
}

func replaceAll(s, old, new string) string {
	out := ""
	for _, r := range s {
		if string(r) == old {
			out += new
		} else {
			out += string(r)
		}
	}
	return out
}

func runGolden(t *testing.T, c goldenCase, parallel int) sim.Result {
	t.Helper()
	mix, err := workload.MixByName(c.Mix)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	classes, err := workload.ParseServiceClasses(c.Classes, len(mix.Codes))
	if err != nil {
		t.Fatal(err)
	}
	var cfg *config.Config
	if c.Machine != "" {
		cfg = stressMachine(c.Machine, len(apps))
	}
	sys, err := sim.New(sim.Options{
		Config: cfg, Policy: c.Policy, Apps: apps, Seed: sim.EvalSeed, Classes: classes,
		ParallelCores: parallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(goldenInstr, 0)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.Mix, c.Policy, err)
	}
	return res
}

// TestGoldenEquivalence pins fixed-seed Results against fixtures generated
// by the seed (pre-indexing) implementation.
func TestGoldenEquivalence(t *testing.T) {
	goldenEquivalence(t, 0)
}

// TestGoldenEquivalenceParallel re-pins every fixture with the deprecated
// Options.ParallelCores knob set: it once forced the removed parallel-window
// mode on and is now ignored, so the fixtures must still match.
func TestGoldenEquivalenceParallel(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures are regenerated by TestGoldenEquivalence")
	}
	goldenEquivalence(t, 3)
}

func goldenEquivalence(t *testing.T, parallel int) {
	if testing.Short() {
		t.Skip("golden equivalence runs full simulations")
	}
	for _, c := range goldenCases() {
		c := c
		name := c.Mix + "/" + c.Policy
		if c.Classes != "" {
			name += "/" + c.Classes
		}
		if c.Machine != "" {
			name += "/" + c.Machine
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := runGolden(t, c, parallel)
			path := goldenPath(c)
			if *updateGolden {
				blob, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden): %v", err)
			}
			var want sim.Result
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			diffs := sim.DiffResults(got, want, goldenFloatTol)
			if len(diffs) > 0 {
				for _, d := range diffs {
					t.Error(d)
				}
				t.Errorf("result diverged from seed implementation (%d fields)", len(diffs))
			}
		})
	}
}
