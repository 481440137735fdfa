package memsched_test

import (
	"testing"

	"memsched"
	"memsched/internal/sim"
)

// TestDeprecatedParallelCores pins the ignored Options.ParallelCores knob:
// every value yields the same Result and SkippedCycles as leaving it unset,
// and ParallelWindows reports no windows. The 8-core mix is one the removed
// parallel mode used to engage on.
func TestDeprecatedParallelCores(t *testing.T) {
	mix, err := memsched.MixByName("8MEM-4")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := mix.Apps()
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) memsched.Result {
		sys, err := memsched.NewSystem(memsched.Options{
			Policy: "me-lreq", Apps: apps, Seed: memsched.EvalSeed, ParallelCores: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(apiSlice/4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w, c := sys.ParallelWindows(); w != 0 || c != 0 {
			t.Errorf("ParallelCores=%d: ParallelWindows() = (%d, %d), want (0, 0)", parallel, w, c)
		}
		return res
	}
	want := run(0)
	for _, parallel := range []int{1, 4} {
		got := run(parallel)
		for _, d := range sim.DiffResults(got, want, 0) {
			t.Errorf("ParallelCores=%d: %s", parallel, d)
		}
		if got.SkippedCycles != want.SkippedCycles {
			t.Errorf("ParallelCores=%d: SkippedCycles %d, want %d", parallel, got.SkippedCycles, want.SkippedCycles)
		}
	}
}
