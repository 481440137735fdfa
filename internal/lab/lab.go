// Package lab orchestrates paper-scale experiment sweeps: it profiles
// applications once, computes single-core reference IPCs once, runs every
// (workload, policy) pair at most once, and fans independent runs across
// internal/runner's worker pool — with cancellation, panic isolation and
// checkpoint/resume. cmd/experiments is a thin presentation layer over this
// package.
package lab

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"memsched/internal/metrics"
	"memsched/internal/runner"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// OnlinePolicy is the pseudo-policy name that runs me-lreq with the online
// ME estimator (started from neutral priorities) instead of profiled tables.
const OnlinePolicy = "me-lreq-online"

// Options configures a Lab.
type Options struct {
	// Instr is the evaluation slice length per core.
	Instr uint64
	// ProfInstr is the profiling slice length (ME measurement).
	ProfInstr uint64
	// Seed is the evaluation seed; profiling always uses sim.ProfileSeed.
	Seed uint64
	// Workers bounds the parallel runner (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Checkpoint, when non-empty, is the JSON file Prime persists completed
	// evaluations to; a later Prime with the same file resumes from it.
	Checkpoint string
	// JobTimeout bounds each evaluation's wall clock (0 = unbounded).
	JobTimeout time.Duration
	// Progress is the interval between runner progress lines sent to Logf
	// during Prime (0 disables them).
	Progress time.Duration
}

// RunOut is one evaluated (workload, policy) pair.
type RunOut struct {
	// Speedup is the SMT speedup (sum of per-core IPC_multi/IPC_single).
	Speedup float64
	// Result is the full simulation outcome.
	Result sim.Result
}

type runKey struct {
	mix, policy string
	// classes is the serving-class assignment in workload.FormatServiceClasses
	// form ("" = classless): a classed run schedules differently under
	// class-aware policies and splits its latency result by class, so it must
	// not share a cache slot with the classless run of the same pair.
	classes string
}

// Lab caches profiling results, single-core references and evaluation runs.
// All methods are safe for concurrent use.
type Lab struct {
	opts Options

	mu        sync.Mutex
	profiles  map[byte]sim.Profile
	singleIPC map[byte]float64
	runs      map[runKey]RunOut
}

// New creates a Lab. Zero-valued Instr/ProfInstr default to 200 000.
func New(opts Options) *Lab {
	if opts.Instr == 0 {
		opts.Instr = 200_000
	}
	if opts.ProfInstr == 0 {
		opts.ProfInstr = 200_000
	}
	if opts.Seed == 0 {
		opts.Seed = sim.EvalSeed
	}
	return &Lab{
		opts:      opts,
		profiles:  map[byte]sim.Profile{},
		singleIPC: map[byte]float64{},
		runs:      map[runKey]RunOut{},
	}
}

func (l *Lab) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// Profile returns the (cached) single-core profiling result for the
// application with the given Table 2 code, measured with the profiling seed.
func (l *Lab) Profile(code byte) (sim.Profile, error) {
	return l.ProfileContext(context.Background(), code)
}

// ProfileContext is Profile under a cancellable context.
func (l *Lab) ProfileContext(ctx context.Context, code byte) (sim.Profile, error) {
	l.mu.Lock()
	p, ok := l.profiles[code]
	l.mu.Unlock()
	if ok {
		return p, nil
	}
	app, err := workload.ByCode(code)
	if err != nil {
		return sim.Profile{}, err
	}
	l.logf("profiling %s", app.Name)
	p, err = sim.ProfileAppContext(ctx, app, l.opts.ProfInstr, sim.ProfileSeed)
	if err != nil {
		return sim.Profile{}, err
	}
	l.mu.Lock()
	l.profiles[code] = p
	l.mu.Unlock()
	return p, nil
}

// SetProfile overrides the cached profile for code (used when a caller has
// already run classification and wants its richer Profile retained).
func (l *Lab) SetProfile(code byte, p sim.Profile) {
	l.mu.Lock()
	l.profiles[code] = p
	l.mu.Unlock()
}

// SingleIPC returns the (cached) single-core IPC under the evaluation seed —
// the denominator of the SMT-speedup metric.
func (l *Lab) SingleIPC(code byte) (float64, error) {
	return l.SingleIPCContext(context.Background(), code)
}

// SingleIPCContext is SingleIPC under a cancellable context.
func (l *Lab) SingleIPCContext(ctx context.Context, code byte) (float64, error) {
	l.mu.Lock()
	v, ok := l.singleIPC[code]
	l.mu.Unlock()
	if ok {
		return v, nil
	}
	app, err := workload.ByCode(code)
	if err != nil {
		return 0, err
	}
	l.logf("single-core reference %s", app.Name)
	p, err := sim.ProfileAppContext(ctx, app, l.opts.Instr, l.opts.Seed)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.singleIPC[code] = p.IPC
	l.mu.Unlock()
	return p.IPC, nil
}

// MixVectors returns the per-core memory-efficiency vector (profiling seed)
// and single-core IPC vector (evaluation seed) for a mix.
func (l *Lab) MixVectors(mix workload.Mix) (mes, singles []float64, err error) {
	return l.MixVectorsContext(context.Background(), mix)
}

// MixVectorsContext is MixVectors under a cancellable context.
func (l *Lab) MixVectorsContext(ctx context.Context, mix workload.Mix) (mes, singles []float64, err error) {
	for i := 0; i < len(mix.Codes); i++ {
		p, err := l.ProfileContext(ctx, mix.Codes[i])
		if err != nil {
			return nil, nil, err
		}
		s, err := l.SingleIPCContext(ctx, mix.Codes[i])
		if err != nil {
			return nil, nil, err
		}
		mes = append(mes, p.ME)
		singles = append(singles, s)
	}
	return mes, singles, nil
}

// Run evaluates mix under policy (cached). policy may be any registry name
// or OnlinePolicy.
func (l *Lab) Run(mix workload.Mix, policy string) (RunOut, error) {
	return l.RunContext(context.Background(), mix, policy)
}

// RunContext is Run under a cancellable context: cancellation lands
// mid-simulation (sim.CancelCheckCycles granularity), not just between runs.
func (l *Lab) RunContext(ctx context.Context, mix workload.Mix, policy string) (RunOut, error) {
	return l.RunClassedContext(ctx, mix, policy, nil)
}

// RunClassedContext is RunContext with a per-core serving-class assignment
// (see sim.Options.Classes); nil classes reproduces RunContext exactly, and
// classed runs are cached separately from classless ones.
func (l *Lab) RunClassedContext(ctx context.Context, mix workload.Mix, policy string,
	classes []workload.ServiceClass) (RunOut, error) {
	key := runKey{mix.Name, policy, workload.FormatServiceClasses(classes)}
	l.mu.Lock()
	out, ok := l.runs[key]
	l.mu.Unlock()
	if ok {
		return out, nil
	}

	mes, singles, err := l.MixVectorsContext(ctx, mix)
	if err != nil {
		return RunOut{}, err
	}
	spec := sim.RunSpec{Mix: mix, Policy: policy, Instr: l.opts.Instr, ME: mes,
		Seed: l.opts.Seed, Classes: classes}
	if policy == OnlinePolicy {
		// The runtime ME estimator starts from neutral (equal) priorities so
		// it has to earn its keep.
		neutral := make([]float64, len(mes))
		for i := range neutral {
			neutral[i] = 1
		}
		spec.Policy = "me-lreq"
		spec.ME = neutral
		spec.OnlineME = true
	}
	res, err := sim.Run(ctx, spec)
	if err != nil {
		return RunOut{}, fmt.Errorf("lab: %s under %s: %w", mix.Name, policy, err)
	}
	sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
	if err != nil {
		return RunOut{}, err
	}
	out = RunOut{Speedup: sp, Result: res}
	l.logf("%-8s %-14s speedup=%.3f", mix.Name, policy, sp)
	l.mu.Lock()
	l.runs[key] = out
	l.mu.Unlock()
	return out, nil
}

// Unfairness computes the Figure 5 metric for a cached or fresh run.
func (l *Lab) Unfairness(mix workload.Mix, policy string) (float64, error) {
	f, err := l.Fairness(mix, policy)
	if err != nil {
		return 0, err
	}
	return f.Unfairness, nil
}

// FairnessOut bundles every fairness metric of one (workload, policy) run.
type FairnessOut struct {
	// Speedup is the SMT speedup (throughput axis).
	Speedup float64
	// Slowdowns is the per-application slowdown vector
	// (IPC_single/IPC_multi per core).
	Slowdowns []float64
	// MaxSlowdown is the largest entry of Slowdowns.
	MaxSlowdown float64
	// Unfairness is max/min slowdown (the paper's Figure 5 metric).
	Unfairness float64
	// HarmonicSpeedup is the harmonic mean of per-application speedups.
	HarmonicSpeedup float64
}

// Fairness computes the full fairness-metric suite for a cached or fresh run.
func (l *Lab) Fairness(mix workload.Mix, policy string) (FairnessOut, error) {
	return l.FairnessContext(context.Background(), mix, policy)
}

// FairnessContext is Fairness under a cancellable context.
func (l *Lab) FairnessContext(ctx context.Context, mix workload.Mix, policy string) (FairnessOut, error) {
	out, err := l.RunContext(ctx, mix, policy)
	if err != nil {
		return FairnessOut{}, err
	}
	_, singles, err := l.MixVectorsContext(ctx, mix)
	if err != nil {
		return FairnessOut{}, err
	}
	multi := out.Result.IPCs()
	f := FairnessOut{Speedup: out.Speedup}
	if f.Slowdowns, err = metrics.Slowdowns(multi, singles); err != nil {
		return FairnessOut{}, fmt.Errorf("lab: %s under %s: %w", mix.Name, policy, err)
	}
	// The remaining metrics are pure functions of the slowdown vector the
	// call above already validated, so their errors cannot fire here.
	f.MaxSlowdown, _ = metrics.MaxSlowdown(multi, singles)
	f.Unfairness, _ = metrics.Unfairness(multi, singles)
	f.HarmonicSpeedup, _ = metrics.HarmonicSpeedup(multi, singles)
	return f, nil
}

// Replicated is the outcome of RunReplicated: speedup statistics over
// several seeds.
type Replicated struct {
	Mean, StdDev float64
	N            int
	Samples      []float64
}

// RunReplicated evaluates mix under policy across n different seeds (the
// lab's base seed plus n-1 derived ones) and returns mean and standard
// deviation of the SMT speedup — a noise estimate the paper's single-run
// methodology lacks. Replicas recompute single-core references for their
// own seed, so each sample is internally consistent. Results are not cached.
func (l *Lab) RunReplicated(mix workload.Mix, policy string, n int) (Replicated, error) {
	if n < 1 {
		return Replicated{}, fmt.Errorf("lab: replication count %d < 1", n)
	}
	mes, _, err := l.MixVectors(mix)
	if err != nil {
		return Replicated{}, err
	}
	apps, err := mix.Apps()
	if err != nil {
		return Replicated{}, err
	}
	out := Replicated{N: n}
	sum, sumSq := 0.0, 0.0
	for rep := 0; rep < n; rep++ {
		seed := l.opts.Seed + uint64(rep)*0x9E3779B97F4A7C15
		singles := make([]float64, len(apps))
		for i, a := range apps {
			p, err := sim.ProfileAppContext(context.Background(), a, l.opts.Instr, seed)
			if err != nil {
				return Replicated{}, err
			}
			singles[i] = p.IPC
		}
		res, err := sim.Run(context.Background(), sim.RunSpec{
			Mix: mix, Policy: policy, Instr: l.opts.Instr, ME: mes, Seed: seed,
		})
		if err != nil {
			return Replicated{}, fmt.Errorf("lab: replica %d: %w", rep, err)
		}
		sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
		if err != nil {
			return Replicated{}, err
		}
		out.Samples = append(out.Samples, sp)
		sum += sp
		sumSq += sp * sp
		l.logf("%-8s %-10s replica %d/%d speedup=%.3f", mix.Name, policy, rep+1, n, sp)
	}
	out.Mean = sum / float64(n)
	if n > 1 {
		variance := (sumSq - sum*sum/float64(n)) / float64(n-1)
		if variance > 0 {
			out.StdDev = math.Sqrt(variance)
		}
	}
	return out, nil
}

// Prime fills every cache needed for the given sweep, running independent
// evaluations on internal/runner's worker pool. After Prime returns nil, Run
// and MixVectors on the same arguments are cache hits.
func (l *Lab) Prime(mixes []workload.Mix, policies []string) error {
	return l.PrimeContext(context.Background(), mixes, policies)
}

// PrimeContext is Prime under a cancellable context. The fan-out inherits
// the full runner feature set: Workers-wide parallel execution whose cached
// results are identical to a serial pass, panic isolation per evaluation,
// per-job timeouts, progress lines, and — when Options.Checkpoint is set —
// persistent completed-run checkpoints that a later PrimeContext on the same
// file resumes from instead of re-simulating.
func (l *Lab) PrimeContext(ctx context.Context, mixes []workload.Mix, policies []string) error {
	// Profiles and references first: they feed every run, and keeping them
	// serial keeps their log order (and any profiling error) deterministic.
	for _, mix := range mixes {
		if _, _, err := l.MixVectorsContext(ctx, mix); err != nil {
			return err
		}
	}
	type job struct {
		mix workload.Mix
		pol string
	}
	var jobs []job
	var keys []string
	for _, mix := range mixes {
		for _, pol := range policies {
			l.mu.Lock()
			_, done := l.runs[runKey{mix.Name, pol, ""}]
			l.mu.Unlock()
			if !done {
				jobs = append(jobs, job{mix, pol})
				keys = append(keys, mix.Name+"/"+pol)
			}
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	outs, err := runner.Run(ctx, runner.NewJobs(keys),
		func(ctx context.Context, j runner.Job) (RunOut, error) {
			return l.RunContext(ctx, jobs[j.ID].mix, jobs[j.ID].pol)
		},
		runner.Options{
			Workers:    l.opts.Workers,
			JobTimeout: l.opts.JobTimeout,
			Progress:   l.opts.Progress,
			Logf:       l.opts.Logf,
			Checkpoint: l.opts.Checkpoint,
			Meta: fmt.Sprintf("lab instr=%d profinstr=%d seed=%#x",
				l.opts.Instr, l.opts.ProfInstr, l.opts.Seed),
		})
	// Splice checkpoint-resumed evaluations into the run cache so subsequent
	// Run calls are cache hits without re-simulating.
	for _, o := range outs {
		if !o.Resumed {
			continue
		}
		mixName, pol, _ := splitKey(o.Job.Key)
		l.mu.Lock()
		l.runs[runKey{mixName, pol, ""}] = o.Value
		l.mu.Unlock()
	}
	if err != nil {
		return err
	}
	return runner.FirstError(outs)
}

// ClassedJob names one (mix, policy, classes) evaluation for
// PrimeClassedContext.
type ClassedJob struct {
	Mix     workload.Mix
	Policy  string
	Classes []workload.ServiceClass
}

// PrimeClassedContext fills the run cache for an explicit list of classed
// evaluations, fanning independent runs across the worker pool the way
// PrimeContext does for classless sweeps. After it returns nil,
// RunClassedContext on the same triples is a cache hit.
func (l *Lab) PrimeClassedContext(ctx context.Context, jobs []ClassedJob) error {
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.Mix.Name] {
			seen[j.Mix.Name] = true
			if _, _, err := l.MixVectorsContext(ctx, j.Mix); err != nil {
				return err
			}
		}
	}
	var pending []ClassedJob
	var keys []string
	for _, j := range jobs {
		cls := workload.FormatServiceClasses(j.Classes)
		l.mu.Lock()
		_, done := l.runs[runKey{j.Mix.Name, j.Policy, cls}]
		l.mu.Unlock()
		if !done {
			pending = append(pending, j)
			keys = append(keys, j.Mix.Name+"/"+j.Policy+"/"+cls)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	outs, err := runner.Run(ctx, runner.NewJobs(keys),
		func(ctx context.Context, job runner.Job) (RunOut, error) {
			j := pending[job.ID]
			return l.RunClassedContext(ctx, j.Mix, j.Policy, j.Classes)
		},
		runner.Options{
			Workers:    l.opts.Workers,
			JobTimeout: l.opts.JobTimeout,
			Progress:   l.opts.Progress,
			Logf:       l.opts.Logf,
			Checkpoint: l.opts.Checkpoint,
			Meta: fmt.Sprintf("lab instr=%d profinstr=%d seed=%#x",
				l.opts.Instr, l.opts.ProfInstr, l.opts.Seed),
		})
	for _, o := range outs {
		if !o.Resumed {
			continue
		}
		// Keys are "mix/policy/classes"; resumed runs re-enter the cache under
		// the same triple.
		mixName, rest, ok := splitKey(o.Job.Key)
		if !ok {
			continue
		}
		pol, cls, _ := splitKey(rest)
		l.mu.Lock()
		l.runs[runKey{mixName, pol, cls}] = o.Value
		l.mu.Unlock()
	}
	if err != nil {
		return err
	}
	return runner.FirstError(outs)
}

// splitKey undoes the "mix/policy" key format of PrimeContext.
func splitKey(key string) (mix, policy string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return key, "", false
}
