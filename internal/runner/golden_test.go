package runner_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memsched/internal/runner"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// goldenDir reuses the fixed-seed fixtures internal/sim pins its controller
// equivalence against; they record serial single-run Results, so matching
// them from a parallel sweep proves the pool is byte-identical to serial
// execution job by job.
const goldenDir = "../sim/testdata/golden"

const goldenInstr = 6_000 // must match internal/sim's golden slice length

type goldenJob struct {
	mix     workload.Mix
	policy  string
	classes []workload.ServiceClass
}

// TestParallelSweepMatchesGoldenFixtures fans the whole golden matrix across
// a wide pool and requires every Result to equal its serial fixture, and the
// parallel aggregation to equal a Workers=1 pass outcome for outcome.
func TestParallelSweepMatchesGoldenFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("golden fixtures unavailable: %v", err)
	}
	var jobs []goldenJob
	var keys []string
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		mixName, policy, ok := strings.Cut(name, "_")
		if !ok {
			continue
		}
		// Classed fixtures carry a trailing "_LBBB"-style segment.
		var classes []workload.ServiceClass
		if base, spec, ok := strings.Cut(policy, "_"); ok {
			classes, err = workload.ParseServiceClasses(spec, -1)
			if err != nil {
				t.Fatalf("fixture %s: %v", e.Name(), err)
			}
			policy = base
		}
		// Fixture names flatten "fix:3210" to "fix-3210".
		if strings.HasPrefix(policy, "fix-") {
			policy = "fix:" + strings.TrimPrefix(policy, "fix-")
		}
		mix, err := workload.MixByName(mixName)
		if err != nil {
			t.Fatalf("fixture %s: %v", e.Name(), err)
		}
		jobs = append(jobs, goldenJob{mix: mix, policy: policy, classes: classes})
		key := fmt.Sprintf("%s/%s", mixName, policy)
		if spec := workload.FormatServiceClasses(classes); spec != "" {
			key += "/" + spec
		}
		keys = append(keys, key)
	}
	if len(jobs) < 10 {
		t.Fatalf("only %d golden fixtures found in %s", len(jobs), goldenDir)
	}

	fn := func(ctx context.Context, j runner.Job) (sim.Result, error) {
		g := jobs[j.ID]
		return sim.Run(ctx, sim.RunSpec{
			Mix: g.mix, Policy: g.policy, Instr: goldenInstr, Seed: sim.EvalSeed,
			Classes: g.classes,
		})
	}
	parallel, err := runner.Run(context.Background(), runner.NewJobs(keys), fn, runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runner.Run(context.Background(), runner.NewJobs(keys), fn, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		blob, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var want sim.Result
		if err := json.Unmarshal(blob, &want); err != nil {
			t.Fatal(err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("%s: %v", keys[i], parallel[i].Err)
		}
		// Compare through DiffResults at tolerance 0, which exempts only
		// SkippedCycles (a run-loop fact the fixtures do not pin) ...
		if diffs := sim.DiffResults(parallel[i].Value, want, 0); len(diffs) > 0 {
			t.Errorf("%s: parallel result diverged from serial golden fixture: %v", keys[i], diffs)
		}
		// ... while parallel vs Workers=1 stays strictly byte-identical: both
		// pools run the same loop, so any drift would be a determinism bug.
		if !reflect.DeepEqual(parallel[i].Value, serial[i].Value) {
			t.Errorf("%s: parallel != Workers=1 aggregation", keys[i])
		}
	}
}
