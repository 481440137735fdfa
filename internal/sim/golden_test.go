package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/workload"
)

// -update-golden regenerates the fixtures under testdata/golden from the
// current implementation. The committed fixtures were produced by the
// pre-indexing (seed) controller, so running the test without the flag
// proves the indexed hot path is observably identical to the original
// full-scan implementation: same candidate sets, same tie-break RNG draws,
// same completion ordering, hence byte-identical Results.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden equivalence fixtures")

// goldenFloatTol is the relative tolerance for float fields. Integer fields
// must stay byte-identical; floats may drift at this scale because the
// quiescence-aware run loop absorbs stalled stretches into Running stats with
// one parallel-merge step (stats.ObserveN), which reorders float additions.
// Comparison goes through sim.DiffResults, which also exempts SkippedCycles
// (the fixtures predate the field, and it describes the run loop, not the
// simulated machine).
const goldenFloatTol = 1e-9

const goldenInstr = 6_000

// goldenCase is one fixed-seed run whose Result is pinned.
type goldenCase struct {
	Mix     string
	Policy  string
	Classes string // serving classes ("" = classless), workload.ParseServiceClasses syntax
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
	return cases
}

func goldenPath(c goldenCase) string {
	name := fmt.Sprintf("%s_%s", c.Mix, c.Policy)
	if c.Classes != "" {
		name += "_" + c.Classes
	}
	name += ".json"
	for _, bad := range []string{":", "/"} {
		name = replaceAll(name, bad, "-")
	}
	return filepath.Join("testdata", "golden", name)
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
	sys, err := sim.New(sim.Options{
		Policy: c.Policy, Apps: apps, Seed: sim.EvalSeed, Classes: classes,
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
