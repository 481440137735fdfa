// Package memsched is a cycle-level simulator of memory access scheduling
// for multi-core processors, reproducing "Memory Access Scheduling Schemes
// for Systems with Multi-Core Processors" (Zheng, Lin, Zhang, Zhu —
// ICPP 2008).
//
// The library simulates out-of-order cores, a two-level cache hierarchy, and
// a detailed DDR2 memory system whose controller schedules requests with a
// pluggable policy. It ships every policy the paper evaluates — the HF-RF
// baseline (hit-first + read-first), Round-Robin, Least-Request, fixed
// priorities, ME (memory-efficiency) and the paper's contribution ME-LREQ —
// plus the profiling methodology (Equation 1), the SMT-speedup and
// unfairness metrics, and the workloads of Tables 2 and 3.
//
// # Quick start
//
//	mix, _ := memsched.MixByName("4MEM-1")
//	res, err := memsched.Run(context.Background(), memsched.RunSpec{
//		Mix:    mix,
//		Policy: "me-lreq",
//		Instr:  200_000,
//	})
//	if err != nil { ... }
//	fmt.Println(res.AvgReadLatency, res.IPCs())
//
// Run observes context cancellation mid-simulation (polled every
// CancelCheckCycles simulated cycles), so a Ctrl-C or timeout lands within
// microseconds of simulated work rather than after the full run.
//
// See the examples/ directory for end-to-end programs, including one that
// implements a custom scheduling policy against this package's Policy
// interface.
package memsched

import (
	"context"
	"io"

	"memsched/internal/config"
	"memsched/internal/memctrl"
	"memsched/internal/metrics"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

// Re-exported core types. The internal packages carry the implementation;
// these aliases are the supported public surface.
type (
	// Config is the full machine description (paper Table 1 defaults).
	Config = config.Config
	// Options configures one simulation run.
	Options = sim.Options
	// System is an assembled machine.
	System = sim.System
	// Result is the outcome of a run.
	Result = sim.Result
	// RunSpec is the declarative description of one simulation run — the
	// input of Run. Zero-valued optional fields reproduce the behavior of
	// the positional RunMix arguments.
	RunSpec = sim.RunSpec
	// CoreResult is one core's frozen statistics.
	CoreResult = sim.CoreResult
	// Profile is a single-core profiling outcome (Equation 1).
	Profile = sim.Profile
	// OnlineEstimator is the runtime memory-efficiency estimator
	// (the paper's future-work extension; see Options.OnlineME).
	OnlineEstimator = sim.OnlineEstimator
	// App is one synthetic application profile (Table 2).
	App = workload.App
	// Mix is one multiprogrammed workload (Table 3).
	Mix = workload.Mix
	// Class is the MEM/ILP application classification.
	Class = workload.Class
	// TraceParams parameterizes a synthetic instruction stream.
	TraceParams = trace.Params

	// Policy ranks schedulable memory requests; implement it to plug a
	// custom scheduler into the controller (see examples/custom_policy).
	Policy = memctrl.Policy
	// Candidate is a schedulable request, annotated with its row-buffer
	// outcome.
	Candidate = memctrl.Candidate
	// PolicyContext carries the controller state visible to a Policy.
	PolicyContext = memctrl.Context
)

// Classification constants.
const (
	// ILP marks compute-intensive applications.
	ILP = workload.ILP
	// MEM marks memory-intensive applications.
	MEM = workload.MEM
)

// Default seeds; profiling and evaluation use disjoint instruction streams
// (the paper's distinct SimPoint slices).
const (
	ProfileSeed = sim.ProfileSeed
	EvalSeed    = sim.EvalSeed
)

// CancelCheckCycles is the granularity, in simulated cycles, at which a
// running simulation polls its context for cancellation.
const CancelCheckCycles = sim.CancelCheckCycles

// DefaultConfig returns the paper's Table 1 machine for n cores.
func DefaultConfig(n int) Config { return config.Default(n) }

// NewSystem assembles a machine from options.
func NewSystem(opts Options) (*System, error) { return sim.New(opts) }

// NewPolicy constructs a built-in policy by registry name: "fcfs", "hf-rf",
// "rr", "lreq", "me", "me-lreq", or "fix:<order>" (e.g. "fix:3210").
func NewPolicy(name string, cores int) (Policy, error) { return sched.New(name, cores) }

// PolicyNames lists the built-in policy registry names.
func PolicyNames() []string { return sched.Names() }

// Apps returns the 26 synthetic SPEC CPU2000 stand-ins of Table 2.
func Apps() []App { return workload.Apps() }

// AppByCode looks an application up by its Table 2 code letter.
func AppByCode(code byte) (App, error) { return workload.ByCode(code) }

// AppByName looks an application up by its SPEC name.
func AppByName(name string) (App, error) { return workload.ByName(name) }

// LoadApps reads user-defined application profiles from JSON (see the
// internal/workload documentation for the schema).
func LoadApps(r io.Reader) ([]App, error) { return workload.LoadApps(r) }

// Mixes returns the 36 workload mixes of Table 3.
func Mixes() []Mix { return workload.Mixes() }

// MixByName returns a Table 3 workload by name, e.g. "4MEM-1".
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// MixesFor filters Table 3 by core count and group ("MEM", "MIX" or "").
func MixesFor(cores int, group string) []Mix { return workload.MixesFor(cores, group) }

// Run assembles a machine from spec and executes it under ctx. Cancellation
// is observed mid-simulation with CancelCheckCycles granularity; a run under
// context.Background() is byte-identical to one under a cancellable context
// that never fires. This is the primary entry point.
func Run(ctx context.Context, spec RunSpec) (Result, error) {
	return sim.Run(ctx, spec)
}

// ProfileAppContext measures IPC_single, BW_single and ME for one application
// on a single-core machine (paper Equation 1).
func ProfileAppContext(ctx context.Context, app App, instr uint64, seed uint64) (Profile, error) {
	return sim.ProfileAppContext(ctx, app, instr, seed)
}

// ProfileAllContext profiles every application and returns the ME vector,
// ready to hand to Run via RunSpec.ME.
func ProfileAllContext(ctx context.Context, apps []App, instr uint64, seed uint64) ([]Profile, []float64, error) {
	return sim.ProfileAllContext(ctx, apps, instr, seed)
}

// ClassifyContext fills the profile's perfect-memory classification fields
// (MEM if >15% faster with a perfect memory system).
func ClassifyContext(ctx context.Context, app App, p *Profile, instr uint64, seed uint64) error {
	return sim.ClassifyContext(ctx, app, p, instr, seed)
}

// SMTSpeedup is the paper's throughput metric: sum of per-core
// IPC_multi/IPC_single.
func SMTSpeedup(ipcMulti, ipcSingle []float64) (float64, error) {
	return metrics.SMTSpeedup(ipcMulti, ipcSingle)
}

// Unfairness is max slowdown over min slowdown across cores (Section 5.3).
func Unfairness(ipcMulti, ipcSingle []float64) (float64, error) {
	return metrics.Unfairness(ipcMulti, ipcSingle)
}
