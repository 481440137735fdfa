package memsched

import (
	"memsched/internal/sim"
)

// This file quarantines the pre-context compatibility wrappers. They are
// slated for removal in a future major revision: no example, command, or
// internal caller uses them anymore, and new code must use the context-aware
// entry points (Run, ProfileAppContext, ProfileAllContext, ClassifyContext).
// Each wrapper stays a thin, behavior-identical shim until then —
// deprecated_test.go pins that equivalence.
//
// Two members of the aliased types are deprecated the same way:
// Options.ParallelCores is ignored and System.ParallelWindows always returns
// (0, 0), because the parallel-window run mode they configured and reported
// was removed. Every run uses the serial cycle-skipping loop.

// RunMix runs a Table 3 workload under the named policy. mes supplies the
// per-core memory-efficiency values (nil uses the paper's Table 2 numbers).
//
// Deprecated: use Run, which takes a context and a RunSpec. RunMix is slated
// for removal.
func RunMix(mix Mix, policy string, instrPerCore uint64, mes []float64, seed uint64) (Result, error) {
	return sim.RunMix(mix, policy, instrPerCore, mes, seed)
}

// ProfileApp is ProfileAppContext under context.Background().
//
// Deprecated: use ProfileAppContext, which supports cancellation. ProfileApp
// is slated for removal.
func ProfileApp(app App, instr uint64, seed uint64) (Profile, error) {
	return sim.ProfileApp(app, instr, seed)
}

// ProfileAll is ProfileAllContext under context.Background().
//
// Deprecated: use ProfileAllContext, which supports cancellation. ProfileAll
// is slated for removal.
func ProfileAll(apps []App, instr uint64, seed uint64) ([]Profile, []float64, error) {
	return sim.ProfileAll(apps, instr, seed)
}

// Classify is ClassifyContext under context.Background().
//
// Deprecated: use ClassifyContext, which supports cancellation. Classify is
// slated for removal.
func Classify(app App, p *Profile, instr uint64, seed uint64) error {
	return sim.Classify(app, p, instr, seed)
}
