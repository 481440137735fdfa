package memsched_test

import (
	"context"
	"reflect"
	"testing"

	"memsched"
	"memsched/internal/sim"
)

// The deprecated pre-context wrappers (deprecated.go) must stay exact,
// behavior-identical shims over the context entry points until removal.

func TestDeprecatedRunMix(t *testing.T) {
	mix, err := memsched.MixByName("2MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	old, err := memsched.RunMix(mix, "me-lreq", apiSlice, nil, memsched.EvalSeed)
	if err != nil {
		t.Fatal(err)
	}
	spec := memsched.RunSpec{Mix: mix, Policy: "me-lreq", Instr: apiSlice, Seed: memsched.EvalSeed}
	res, err := memsched.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, res) {
		t.Fatal("RunMix diverged from Run(RunSpec)")
	}
}

func TestDeprecatedProfileClassify(t *testing.T) {
	app, err := memsched.AppByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	old, err := memsched.ProfileApp(app, apiSlice, memsched.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := memsched.ProfileAppContext(context.Background(), app, apiSlice, memsched.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, p) {
		t.Fatal("ProfileApp diverged from ProfileAppContext")
	}
	if err := memsched.Classify(app, &old, apiSlice, memsched.ProfileSeed); err != nil {
		t.Fatal(err)
	}
	if err := memsched.ClassifyContext(context.Background(), app, &p, apiSlice, memsched.ProfileSeed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, p) {
		t.Fatal("Classify diverged from ClassifyContext")
	}
}

func TestDeprecatedProfileAll(t *testing.T) {
	apps := memsched.Apps()[:2]
	oldProfiles, oldMEs, err := memsched.ProfileAll(apps, apiSlice, memsched.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	profiles, mes, err := memsched.ProfileAllContext(context.Background(), apps, apiSlice, memsched.ProfileSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldProfiles, profiles) || !reflect.DeepEqual(oldMEs, mes) {
		t.Fatal("ProfileAll diverged from ProfileAllContext")
	}
}

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
