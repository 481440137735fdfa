// Package sim assembles cores, caches, memory controller and DRAM into a
// full system, runs the paper's execution methodology, and reports results.
//
// Methodology (paper Section 4.1): the workload runs until the last core
// commits its instruction slice; cores that finish earlier keep running
// (their generators are infinite, the statistical analogue of "reload the
// application"), but their statistics freeze at their own commit target.
package sim

import (
	"context"
	"fmt"

	"memsched/internal/cache"
	"memsched/internal/config"
	"memsched/internal/cpu"
	"memsched/internal/dram"
	"memsched/internal/memctrl"
	"memsched/internal/power"
	"memsched/internal/sched"
	"memsched/internal/stats"
	"memsched/internal/telemetry"
	"memsched/internal/trace"
	"memsched/internal/workload"
	"memsched/internal/xrand"
)

// Options configures one simulation run.
type Options struct {
	// Config is the machine description; zero value selects config.Default
	// for the number of applications.
	Config *config.Config
	// Policy is the scheduling policy registry name (see package sched).
	Policy string
	// CustomPolicy, when non-nil, overrides Policy with a user-supplied
	// implementation of the controller's Policy interface; Policy is then
	// used only as a display label (defaulting to CustomPolicy.Name()).
	CustomPolicy memctrl.Policy
	// Apps lists the application profiles, one per core.
	Apps []workload.App
	// Generators, when non-nil, overrides the synthetic generators (e.g.
	// with trace.Looper replays of recorded traces); one per core. Apps is
	// still required for names, classes and fallback ME values.
	Generators []trace.Generator
	// Classes assigns each core's application a serving class (LC/BE), one
	// entry per core; nil marks every core best-effort. Classes are labels
	// plus policy input: they are forwarded to the controller (deadline-aware
	// policies read them via Context.LC) and drive per-class latency
	// reporting, but never change admission, timing or any other machine
	// mechanics — a run under a class-blind policy is byte-identical with and
	// without them, apart from the class labels themselves.
	Classes []workload.ServiceClass
	// ME holds the per-core memory-efficiency values loaded into the
	// controller's priority tables (from profiling). nil falls back to each
	// application's PaperME — useful for quick runs without a profiling
	// pass.
	ME []float64
	// Seed drives every random stream in the run. Profiling and evaluation
	// runs use different seeds (the paper's distinct SimPoint slices).
	Seed uint64
	// WarmupInstr is the per-core fast-forward slice executed before
	// statistics start: caches and branch state warm up, then every counter
	// resets. 0 selects instrPerCore/4. Set NoWarmup to measure from a cold
	// machine.
	WarmupInstr uint64
	// NoWarmup disables the warmup phase entirely.
	NoWarmup bool
	// OnlineME enables the epoch-based runtime ME estimator (the paper's
	// future-work extension) instead of the statically loaded table.
	OnlineME bool
	// OnlineEpoch is the estimator epoch length in cycles (0 = default).
	OnlineEpoch int64
	// NoCycleSkip disables next-event time advance and ticks every cycle
	// one at a time. Cycle skipping never changes integer statistics and
	// perturbs float statistics by at most ~1e-9 relative (see RunContext),
	// so this is for differential testing and debugging, not for results.
	NoCycleSkip bool
	// Telemetry, when non-nil, attaches the epoch-sampled observer layer
	// (package telemetry) over the measurement window. It is read-only with
	// respect to the simulated machine: enabling it never changes a Result
	// beyond the exempt SkippedCycles field (epoch boundaries clamp skips).
	Telemetry *telemetry.Options
	// ParallelCores once selected intra-run parallel windows over simulated
	// cores. That mode was removed: it never beat the cycle-skipping loop on
	// the hosts it was measured on.
	//
	// Deprecated: ignored. Every run uses the serial cycle-skipping loop, so
	// Results do not depend on this field. It remains so existing callers
	// still compile.
	ParallelCores int
}

// CoreResult holds one core's frozen statistics.
type CoreResult struct {
	App     string
	Class   workload.Class
	Retired uint64
	Cycles  int64 // cycles until this core hit its commit target
	IPC     float64
	// Memory-side statistics at freeze time.
	MemReads       uint64
	MemWrites      uint64
	AvgReadLatency float64 // controller admission -> data return, cycles
	// AvgQueueDelay and AvgServiceTime decompose AvgReadLatency into the
	// scheduling component (admission -> issue) and the DRAM component
	// (issue -> data).
	AvgQueueDelay  float64
	AvgServiceTime float64
	// P95ReadLatency is an upper bound on the 95th-percentile read latency
	// (power-of-two histogram buckets).
	P95ReadLatency int64
	// Service is the serving class (LC/BE) assigned to this core's
	// application; BE unless Options.Classes said otherwise.
	Service workload.ServiceClass
	// ReadLatencyP50..P999 are read-latency percentiles from the
	// deterministic log-spaced histogram (exact integer counts, within one
	// bucket width — <= 12.5% relative; cf. P95ReadLatency's 2x bound).
	ReadLatencyP50  int64
	ReadLatencyP95  int64
	ReadLatencyP99  int64
	ReadLatencyP999 int64
	BandwidthGBs    float64 // read+write DRAM traffic over the core's runtime
	L2MissesPerKI   float64 // L2 misses per thousand retired instructions
	// Pipeline-side statistics over the measurement window.
	RetireStallPct float64 // fraction of cycles with a non-empty ROB retiring nothing
	IFetchStalls   uint64  // front-end stalls on instruction supply
	DispatchHaz    uint64  // dispatch attempts blocked by structural hazards
}

// Result is the outcome of one Run.
type Result struct {
	Policy      string
	Cores       []CoreResult
	TotalCycles int64 // when the last core hit its target
	// SkippedCycles counts the measurement-window cycles the next-event run
	// loop jumped over instead of ticking one at a time, because every
	// component was provably idle until a known future event. They are fully
	// accounted for in every statistic (TotalCycles includes them); the ratio
	// SkippedCycles/TotalCycles is the fraction of wall-clock work the
	// quiescence-aware loop avoided.
	SkippedCycles int64
	DRAM          dram.Stats
	// AvgReadLatency is the request-weighted mean across cores, the metric
	// of the paper's Figure 4 (left).
	AvgReadLatency float64
	Drains         uint64
	// ReadQueueOcc and WriteQueueOcc are the mean controller queue depths.
	ReadQueueOcc  float64
	WriteQueueOcc float64
	// BusUtilization is the fraction of cycles the DRAM data buses carried
	// data, averaged over channels.
	BusUtilization float64
	// Energy is the estimated DRAM energy breakdown for the measurement
	// window (DDR2 coefficients; see internal/power).
	Energy power.Breakdown
	// ClassLat summarizes the read-latency distribution per serving class,
	// indexed by workload.ServiceClass (BE = 0, LC = 1). Both entries are
	// always present; with no classes assigned every core is BE and the LC
	// entry is zero. Each core's histogram is captured at its own freeze
	// point, consistent with the per-core statistics.
	ClassLat [2]ClassLatency
}

// ClassLatency is one serving class's aggregated read-latency distribution:
// the merge of the member cores' deterministic histograms, so the integer
// fields are byte-identical across the naive and cycle-skipping run modes.
type ClassLatency struct {
	Class workload.ServiceClass
	// Cores is the number of cores in the class; Reads the merged sample
	// count.
	Cores int
	Reads uint64
	// MeanReadLatency is the exact merged mean (integer sum over count).
	MeanReadLatency float64
	// P50..P999 are log-spaced-bucket percentiles (within one bucket width).
	P50  int64
	P95  int64
	P99  int64
	P999 int64
	// Hist is the merged histogram itself, for consumers that need more than
	// the canned percentiles (SLO attainment at arbitrary budgets, run-mode
	// differential tests). It serializes sparsely — occupied buckets only —
	// so wire results and cached checkpoints round-trip with full fidelity.
	Hist stats.LatencyHist `json:"hist"`
}

// IPCs returns the per-core IPC vector.
func (r *Result) IPCs() []float64 {
	out := make([]float64, len(r.Cores))
	for i, c := range r.Cores {
		out[i] = c.IPC
	}
	return out
}

// System is an assembled machine ready to Run.
type System struct {
	cfg    config.Config
	opts   Options
	cores  []*cpu.Core
	hier   *cache.Hierarchy
	mc     *memctrl.Controller
	dramSy *dram.System
	online *OnlineEstimator
	telem  *telemetry.Collector

	// frozenLat[i] is core i's read-latency histogram captured at its own
	// freeze point (cores keep running past their commit target, so the live
	// controller histogram drifts on). Preallocated at New; reset per run.
	frozenLat []stats.LatencyHist

	// Cached non-core horizon for nextEventAt: hier and mc expose change
	// counters, so stalled stretches where neither moved revalidate the last
	// computed min with two integer compares instead of rescanning the event
	// heap and every channel.
	nonCoreNext  int64
	nonCoreHV    uint64
	nonCoreMV    uint64
	nonCoreValid bool
}

// New assembles a system. The number of cores is len(opts.Apps).
func New(opts Options) (*System, error) {
	n := len(opts.Apps)
	if n == 0 {
		return nil, fmt.Errorf("sim: no applications given")
	}
	var cfg config.Config
	if opts.Config != nil {
		cfg = *opts.Config
	} else {
		cfg = config.Default(n)
	}
	cfg.Cores = n
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	pol := opts.CustomPolicy
	if pol == nil {
		var err error
		pol, err = sched.New(opts.Policy, n)
		if err != nil {
			return nil, err
		}
	} else if opts.Policy == "" {
		opts.Policy = pol.Name()
	}

	me := opts.ME
	if me == nil {
		me = make([]float64, n)
		for i, a := range opts.Apps {
			me[i] = a.PaperME
		}
	}
	if len(me) != n {
		return nil, fmt.Errorf("sim: %d ME values for %d cores", len(me), n)
	}
	if opts.Classes != nil && len(opts.Classes) != n {
		return nil, fmt.Errorf("sim: %d service classes for %d cores", len(opts.Classes), n)
	}
	table, err := memctrl.NewPriorityTable(me, cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
	if err != nil {
		return nil, err
	}

	dramSys := dram.NewSystem(&cfg)
	mc, err := memctrl.New(&cfg, dramSys, pol, table, xrand.NewStream(opts.Seed, 0xC0))
	if err != nil {
		return nil, err
	}
	hier := cache.NewHierarchy(&cfg, mc)
	if opts.Classes != nil {
		lc := make([]bool, n)
		for i, c := range opts.Classes {
			lc[i] = c == workload.LC
		}
		if err := mc.SetLatencyCritical(lc); err != nil {
			return nil, err
		}
	}

	if opts.Generators != nil && len(opts.Generators) != n {
		return nil, fmt.Errorf("sim: %d generators for %d cores", len(opts.Generators), n)
	}
	s := &System{cfg: cfg, opts: opts, hier: hier, mc: mc, dramSy: dramSys,
		frozenLat: make([]stats.LatencyHist, n)}
	for i, a := range opts.Apps {
		var gen trace.Generator
		if opts.Generators != nil {
			gen = opts.Generators[i]
		} else {
			// The instruction stream is a function of (seed, application),
			// NOT of the core index: the paper's SMT-speedup metric divides
			// each application's multi-core IPC by its IPC on the *same
			// slice* run alone, so the stream must be identical in both runs.
			var err error
			gen, err = trace.NewSynthetic(a.Params, workload.BaseFor(i), opts.Seed^(uint64(a.Code)*0x9E3779B97F4A7C15))
			if err != nil {
				return nil, fmt.Errorf("sim: core %d (%s): %w", i, a.Name, err)
			}
		}
		core := cpu.NewCore(i, &s.cfg, gen, hier, xrand.NewStream(opts.Seed, uint64(a.Code)))
		core.ConfigureFetch(a.Params.EffectiveCodeLines(), a.Params.EffectiveTakenProb(),
			workload.CodeBaseFor(i))
		// With skipping off the core must also drop its quiescent fast path,
		// so the NoCycleSkip arm of differential tests is a strict
		// cycle-by-cycle reference.
		core.SetNoQuiesce(opts.NoCycleSkip)
		s.cores = append(s.cores, core)
	}
	if opts.OnlineME {
		s.online = NewOnlineEstimator(s, opts.OnlineEpoch)
	}
	if opts.Telemetry != nil {
		s.telem = telemetry.NewCollector(*opts.Telemetry, &s.cfg, s.cores, hier, mc, dramSys)
	}
	return s, nil
}

// Config returns the system's validated configuration.
func (s *System) Config() *config.Config { return &s.cfg }

// Controller exposes the memory controller (for examples and tests).
func (s *System) Controller() *memctrl.Controller { return s.mc }

// Online returns the online ME estimator, or nil when OnlineME is off.
func (s *System) Online() *OnlineEstimator { return s.online }

// Telemetry returns the attached telemetry collector, or nil when disabled.
func (s *System) Telemetry() *telemetry.Collector { return s.telem }

// ParallelWindows always returns (0, 0): no run executes parallel windows.
//
// Deprecated: the parallel-window mode was removed (see
// Options.ParallelCores). The method remains so existing callers still
// compile.
func (s *System) ParallelWindows() (windows, cycles int64) { return 0, 0 }

// CancelCheckCycles is the cancellation-check granularity of RunContext: a
// cancelled context is observed within at most this many simulated cycles
// (plus the cost of the in-flight cycle). The check is a single atomic load
// once per interval, so it is invisible in profiles, and it never perturbs
// the simulation itself — a run that is not cancelled produces byte-identical
// Results whether or not a cancellable context is supplied. When cycle
// skipping jumps over an interval boundary the check fires on the first
// cycle actually executed after it, so wall-clock responsiveness is at least
// as good as the naive loop's (a skip costs one loop iteration regardless of
// how many simulated cycles it covers).
const CancelCheckCycles = 1024

// nextCancelCheck returns the first cancellation-check cycle at or after now
// (the naive loop checks at every multiple of CancelCheckCycles).
func nextCancelCheck(now int64) int64 {
	if rem := now % CancelCheckCycles; rem != 0 {
		return now + CancelCheckCycles - rem
	}
	return now
}

// Run executes until every core retires instrPerCore instructions, or until
// maxCycles elapse (0 selects a generous default); hitting the bound is an
// error, because results would be truncated.
func (s *System) Run(instrPerCore uint64, maxCycles int64) (Result, error) {
	return s.RunContext(context.Background(), instrPerCore, maxCycles)
}

// RunContext is Run with mid-simulation cancellation: ctx is polled every
// CancelCheckCycles simulated cycles, in both the warmup and the measurement
// phase, and a cancelled run returns ctx's error (wrapped, so errors.Is works)
// with a zero-valued Result.
func (s *System) RunContext(ctx context.Context, instrPerCore uint64, maxCycles int64) (Result, error) {
	if instrPerCore == 0 {
		return Result{}, fmt.Errorf("sim: instrPerCore must be positive")
	}
	// A context that can never be cancelled (context.Background()) has a nil
	// Done channel; skip the polling entirely in that case.
	cancelCh := ctx.Done()
	warm := s.opts.WarmupInstr
	if warm == 0 && !s.opts.NoWarmup {
		warm = instrPerCore / 4
	}
	if maxCycles <= 0 {
		// 200 cycles per instruction is far beyond any credible slowdown.
		maxCycles = int64(instrPerCore+warm) * 200
	}
	n := len(s.cores)
	res := Result{Policy: s.opts.Policy, Cores: make([]CoreResult, n)}
	for i := range s.frozenLat {
		s.frozenLat[i].Reset()
	}

	s.nonCoreValid = false

	now := int64(0)

	// Phase 1: warmup. Run until every core has retired `warm` instructions,
	// then reset every statistic; caches, queues and predictor state carry
	// over (fast-forward-then-measure, the role SimPoint warmup plays in the
	// paper's methodology).
	if warm > 0 {
		warmDone := 0
		warmed := make([]bool, n)
		nextCancel := nextCancelCheck(now)
		for warmDone < n {
			if now >= maxCycles {
				return res, fmt.Errorf("sim: warmup exceeded %d cycles", maxCycles)
			}
			if cancelCh != nil && now >= nextCancel {
				nextCancel = nextCancelCheck(now + 1)
				if err := ctx.Err(); err != nil {
					return Result{}, fmt.Errorf("sim: run cancelled at warmup cycle %d: %w", now, err)
				}
			}
			s.tick(now)
			now += 1 + s.skipQuiescent(now, maxCycles)
			for i, c := range s.cores {
				if !warmed[i] && c.Retired() >= warm {
					warmed[i] = true
					warmDone++
				}
			}
		}
		s.mc.ResetStats()
		s.hier.ResetStats()
		s.dramSy.ResetStats()
	}

	// Phase 2: measurement. Each core's target is its own retired count at
	// the window start plus the slice length; its IPC uses cycles from the
	// window start (paper: statistics only over the simpoint's instructions).
	t0 := now
	if s.telem != nil {
		// Armed only now: warmup resets have run, so the collector's counter
		// baselines and epoch grid are anchored to the measurement window.
		s.telem.Start(now)
	}
	base := make([]uint64, n)
	cpuBase := make([]cpu.Stats, n)
	for i, c := range s.cores {
		base[i] = c.Retired()
		cpuBase[i] = *c.Stats() // measurement-window baseline
	}
	finished := 0
	done := make([]bool, n)
	nextCancel := nextCancelCheck(now)
	for finished < n {
		if now >= maxCycles {
			return res, fmt.Errorf("sim: exceeded %d cycles with %d/%d cores finished",
				maxCycles, finished, n)
		}
		if cancelCh != nil && now >= nextCancel {
			nextCancel = nextCancelCheck(now + 1)
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: run cancelled at cycle %d: %w", now, err)
			}
		}
		s.tick(now)
		skipped := s.skipQuiescent(now, maxCycles)
		now += 1 + skipped
		res.SkippedCycles += skipped
		for i, c := range s.cores {
			if !done[i] && c.Retired() >= base[i]+instrPerCore {
				done[i] = true
				finished++
				s.freeze(i, now-t0, instrPerCore, &cpuBase[i], &res.Cores[i])
				if finished == n {
					res.TotalCycles = now - t0
				}
			}
		}
	}

	if s.telem != nil {
		// now was post-incremented past the final executed cycle.
		s.telem.Finish(now - 1)
	}
	res.DRAM = s.dramSy.TotalStats()
	res.Drains = s.mc.DrainEntries()
	res.ReadQueueOcc, res.WriteQueueOcc = s.mc.QueueOccupancy()
	if res.TotalCycles > 0 {
		res.BusUtilization = float64(res.DRAM.BusBusyCycles) /
			float64(res.TotalCycles*int64(len(s.dramSy.Channels)))
	}
	res.Energy, _ = power.Estimate(power.DDR2(), power.Counts{
		Activations: res.DRAM.Closed + res.DRAM.Conflicts,
		Reads:       s.mc.ReadsIssued(),
		Writes:      s.mc.WritesIssued(),
		Refreshes:   res.DRAM.Refreshes,
		Ranks:       s.cfg.Memory.Channels * s.cfg.Memory.RanksPerChan,
		Cycles:      res.TotalCycles,
	}, s.cfg.Core.FreqGHz)
	var latSum float64
	var latN uint64
	for i := range res.Cores {
		cs := s.mc.CoreStatsOf(i)
		latSum += cs.ReadLatency.Mean() * float64(cs.ReadLatency.N())
		latN += cs.ReadLatency.N()
	}
	if latN > 0 {
		res.AvgReadLatency = latSum / float64(latN)
	}
	for cls := range res.ClassLat {
		c := workload.ServiceClass(cls)
		h := s.ClassLatencyHist(c)
		cores := 0
		for i := range res.Cores {
			if s.serviceClass(i) == c {
				cores++
			}
		}
		res.ClassLat[cls] = ClassLatency{
			Class:           c,
			Cores:           cores,
			Reads:           h.N(),
			MeanReadLatency: h.Mean(),
			P50:             h.Quantile(0.50),
			P95:             h.Quantile(0.95),
			P99:             h.Quantile(0.99),
			P999:            h.Quantile(0.999),
			Hist:            h,
		}
	}
	return res, nil
}

// serviceClass returns core i's serving class (BE when no classes were
// assigned).
func (s *System) serviceClass(i int) workload.ServiceClass {
	if len(s.opts.Classes) > 0 {
		return s.opts.Classes[i]
	}
	return workload.BE
}

// ClassLatencyHist returns the merged read-latency histogram of every core in
// the given serving class, each captured at its own freeze point. Valid after
// a completed run; the merge of shard histograms is bitwise equal to the
// histogram of the concatenated stream, so the result is byte-identical
// across the naive and cycle-skipping run modes.
func (s *System) ClassLatencyHist(class workload.ServiceClass) stats.LatencyHist {
	var h stats.LatencyHist
	for i := range s.frozenLat {
		if s.serviceClass(i) == class {
			h.Merge(&s.frozenLat[i])
		}
	}
	return h
}

// tick advances every component by one cycle.
func (s *System) tick(now int64) {
	for _, c := range s.cores {
		c.Tick(now)
	}
	s.hier.Tick(now)
	s.mc.Tick(now)
	if s.online != nil {
		s.online.Tick(now)
	}
	// Telemetry samples last, so epoch-boundary samples see the cycle's final
	// state (all completions fired, queues updated).
	if s.telem != nil {
		s.telem.Tick(now)
	}
}

// skipQuiescent implements next-event time advance: called right after the
// tick at `now`, it asks every component for the earliest cycle at which it
// could do anything but repeat the stall it just exhibited, and when that is
// beyond now+1 it bulk-applies the per-cycle statistics of the intervening
// stalled cycles and returns how many cycles the caller may jump over. The
// skipped cycles are exactly the ones the naive loop would have ticked
// without any state change, so results are preserved (integer counters
// exactly; float Running stats to ~1e-9 relative, via stats.ObserveN).
func (s *System) skipQuiescent(now, maxCycles int64) int64 {
	if s.opts.NoCycleSkip {
		return 0
	}
	// Cheap pre-filter: a skip is only possible when no core retired or
	// dispatched this cycle, so don't even scan NextEventAt while any core
	// is making progress — that keeps compute-bound phases at naive-loop cost.
	for _, c := range s.cores {
		if !c.IdleLastTick() {
			return 0
		}
	}
	next := s.nextEventAt(now)
	if next > maxCycles {
		// Never jump past the cycle bound: the error path must fire at the
		// same cycle it would under the naive loop.
		next = maxCycles
	}
	k := next - now - 1
	if k <= 0 {
		return 0
	}
	for _, c := range s.cores {
		c.AbsorbStall(now, k)
	}
	s.hier.AbsorbStall(k)
	s.mc.AbsorbStall(k)
	return k
}

// nextEventAt returns the earliest cycle > now at which any component can
// make progress. A core that can retire or dispatch next cycle short-circuits
// the scan, so compute-bound phases pay almost nothing for the check.
func (s *System) nextEventAt(now int64) int64 {
	next := cpu.FarFuture
	for _, c := range s.cores {
		t := c.NextEventAt(now)
		if t <= now+1 {
			return now + 1
		}
		if t < next {
			next = t
		}
	}
	if t := s.nonCoreNextAt(now); t < next {
		next = t
	}
	if s.online != nil {
		if t := s.online.NextEventAt(now); t < next {
			next = t
		}
	}
	if s.telem != nil {
		// Epoch boundaries clamp the skip target so boundary samples are taken
		// at their exact cycle (same contract as the online estimator).
		if t := s.telem.NextEventAt(now); t < next {
			next = t
		}
	}
	return next
}

// nonCoreNextAt returns min(hierarchy, controller).NextEventAt(now), cached
// between calls: both components maintain a change counter over exactly the
// state their horizon derives from, so a stalled stretch where neither moved
// revalidates the previous answer with two integer compares instead of
// rescanning the event heap and every memory channel. Cached values that are
// not strictly in the future are discarded, because both horizons collapse to
// now+1 when the component can act immediately and that answer does not age.
func (s *System) nonCoreNextAt(now int64) int64 {
	hv, mv := s.hier.Version(), s.mc.Version()
	if s.nonCoreValid && hv == s.nonCoreHV && mv == s.nonCoreMV && s.nonCoreNext > now {
		return s.nonCoreNext
	}
	next := s.hier.NextEventAt(now)
	if t := s.mc.NextEventAt(now); t < next {
		next = t
	}
	s.nonCoreNext, s.nonCoreHV, s.nonCoreMV, s.nonCoreValid = next, hv, mv, true
	return next
}

// freeze records core i's statistics at the moment it reached its target.
// cpuBase is the core's counter snapshot at the start of the measurement
// window, so pipeline statistics cover only the measured slice.
func (s *System) freeze(i int, cycles int64, target uint64, cpuBase *cpu.Stats, out *CoreResult) {
	app := s.opts.Apps[i]
	mcs := s.mc.CoreStatsOf(i)
	hcs := s.hier.CoreStats(i)
	out.App = app.Name
	out.Class = app.Class
	out.Retired = target
	out.Cycles = cycles
	out.IPC = float64(target) / float64(cycles)
	out.MemReads = mcs.ReadsCompleted
	out.MemWrites = mcs.WritesRetired
	out.AvgReadLatency = mcs.ReadLatency.Mean()
	out.AvgQueueDelay = mcs.QueueDelay.Mean()
	out.AvgServiceTime = mcs.ServiceTime.Mean()
	out.P95ReadLatency = mcs.ReadLatencyHist.Quantile(0.95)
	out.Service = s.serviceClass(i)
	// Capture the log-spaced histogram at the core's own freeze point; the
	// copy also feeds the per-class merge after the last core commits.
	s.frozenLat[i] = mcs.LatHist
	out.ReadLatencyP50 = s.frozenLat[i].Quantile(0.50)
	out.ReadLatencyP95 = s.frozenLat[i].Quantile(0.95)
	out.ReadLatencyP99 = s.frozenLat[i].Quantile(0.99)
	out.ReadLatencyP999 = s.frozenLat[i].Quantile(0.999)
	out.L2MissesPerKI = float64(hcs.L2Misses.Value()) * 1000 / float64(target)
	cur := s.cores[i].Stats()
	if dCycles := cur.Cycles - cpuBase.Cycles; dCycles > 0 {
		out.RetireStallPct = float64(cur.RetireStalls-cpuBase.RetireStalls) / float64(dCycles)
	}
	out.IFetchStalls = cur.IFetchStalls - cpuBase.IFetchStalls
	out.DispatchHaz = cur.DispatchHaz - cpuBase.DispatchHaz
	bytes := float64(mcs.ReadsCompleted+mcs.WritesRetired) * float64(s.cfg.L2.LineBytes)
	ns := float64(cycles) / s.cfg.CyclesPerNs()
	if ns > 0 {
		out.BandwidthGBs = bytes / ns // bytes per ns == GB/s
	}
}

// Profile holds one application's single-core profiling outcome
// (paper Equation 1 inputs and result).
type Profile struct {
	App     string
	Code    byte
	IPC     float64
	BWGBs   float64
	ME      float64 // IPC / BW
	MemMPKI float64
	// PerfectIPC and Gain are filled by Classify: IPC under a perfect
	// memory system and the fractional gain over the real system.
	PerfectIPC float64
	Gain       float64
	Class      workload.Class // measured class: MEM if Gain > 0.15
}

// ProfileSeed is the default seed for profiling runs; evaluation runs use a
// different seed, mirroring the paper's disjoint SimPoint slices.
const ProfileSeed uint64 = 0xA11CE

// EvalSeed is the default evaluation seed.
const EvalSeed uint64 = 0xBEEF5

// RunSpec is the declarative description of one simulation run — the input
// of Run, and the unit of work the experiment runner fans out. The zero value
// of every optional field selects the same behavior the positional RunMix
// arguments did, so RunMix(mix, pol, n, mes, seed) and
// Run(ctx, RunSpec{Mix: mix, Policy: pol, Instr: n, ME: mes, Seed: seed})
// are interchangeable.
type RunSpec struct {
	// Mix is the workload to run, one application per core. Apps, when
	// non-nil, overrides it (for ad-hoc app lists outside Table 3).
	Mix  workload.Mix
	Apps []workload.App
	// Classes assigns serving classes (LC/BE), one per core; nil marks every
	// core best-effort (see Options.Classes).
	Classes []workload.ServiceClass
	// Policy is the scheduling policy registry name; CustomPolicy, when
	// non-nil, overrides it with a user implementation (Policy then only
	// labels the result).
	Policy       string
	CustomPolicy memctrl.Policy
	// Instr is the per-core instruction slice; it must be positive.
	Instr uint64
	// ME holds per-core memory-efficiency values from profiling; nil falls
	// back to the paper's Table 2 numbers.
	ME []float64
	// Seed drives every random stream of the run.
	Seed uint64
	// Config overrides the default Table 1 machine.
	Config *config.Config
	// OnlineME enables the epoch-based runtime ME estimator (OnlineEpoch is
	// its epoch length in cycles, 0 = default) instead of static tables.
	OnlineME    bool
	OnlineEpoch int64
	// WarmupInstr/NoWarmup control the fast-forward phase (see Options).
	WarmupInstr uint64
	NoWarmup    bool
	// NoCycleSkip disables next-event time advance (see Options).
	NoCycleSkip bool
	// MaxCycles bounds the run (0 selects a generous default).
	MaxCycles int64
	// Telemetry, when non-nil, attaches the epoch-sampled observer layer
	// (see Options.Telemetry); after a successful run the snapshot is
	// exported to Telemetry.Dir when set, and handed to Telemetry.Sink.
	Telemetry *telemetry.Options
}

// Run assembles a system from spec and executes it under ctx. Cancellation
// is observed mid-simulation with CancelCheckCycles granularity, making this
// the entry point the parallel experiment runner builds on.
func Run(ctx context.Context, spec RunSpec) (Result, error) {
	apps := spec.Apps
	if apps == nil {
		var err error
		apps, err = spec.Mix.Apps()
		if err != nil {
			return Result{}, err
		}
	}
	sys, err := New(Options{
		Config:       spec.Config,
		Policy:       spec.Policy,
		CustomPolicy: spec.CustomPolicy,
		Apps:         apps,
		Classes:      spec.Classes,
		ME:           spec.ME,
		Seed:         spec.Seed,
		WarmupInstr:  spec.WarmupInstr,
		NoWarmup:     spec.NoWarmup,
		OnlineME:     spec.OnlineME,
		OnlineEpoch:  spec.OnlineEpoch,
		NoCycleSkip:  spec.NoCycleSkip,
		Telemetry:    spec.Telemetry,
	})
	if err != nil {
		return Result{}, err
	}
	res, err := sys.RunContext(ctx, spec.Instr, spec.MaxCycles)
	if err == nil && spec.Telemetry != nil && spec.Telemetry.Dir != "" {
		err = sys.Telemetry().Snapshot().Export(spec.Telemetry.Dir)
	}
	return res, err
}

// ProfileApp measures IPC_single and BW_single for one application on a
// single-core machine with the same per-core configuration (Equation 1).
//
// Deprecated: use ProfileAppContext, which supports cancellation.
func ProfileApp(app workload.App, instr uint64, seed uint64) (Profile, error) {
	return ProfileAppContext(context.Background(), app, instr, seed)
}

// ProfileAppContext is ProfileApp under a cancellable context.
func ProfileAppContext(ctx context.Context, app workload.App, instr uint64, seed uint64) (Profile, error) {
	sys, err := New(Options{Policy: "hf-rf", Apps: []workload.App{app}, Seed: seed})
	if err != nil {
		return Profile{}, err
	}
	res, err := sys.RunContext(ctx, instr, 0)
	if err != nil {
		return Profile{}, fmt.Errorf("sim: profiling %s: %w", app.Name, err)
	}
	c := res.Cores[0]
	p := Profile{
		App: app.Name, Code: app.Code,
		IPC: c.IPC, BWGBs: c.BandwidthGBs,
		MemMPKI: float64(c.MemReads+c.MemWrites) * 1000 / float64(c.Retired),
	}
	if p.BWGBs > 0 {
		p.ME = p.IPC / p.BWGBs
	} else {
		// No measurable traffic in the slice: effectively infinite memory
		// efficiency; use a large finite stand-in like the paper's eon.
		p.ME = 1e6
	}
	return p, nil
}

// Classify runs app under a perfect memory system and fills the profile's
// classification fields (paper Section 4.2: MEM if >15% faster with perfect
// memory).
//
// Deprecated: use ClassifyContext, which supports cancellation.
func Classify(app workload.App, p *Profile, instr uint64, seed uint64) error {
	return ClassifyContext(context.Background(), app, p, instr, seed)
}

// ClassifyContext is Classify under a cancellable context.
func ClassifyContext(ctx context.Context, app workload.App, p *Profile, instr uint64, seed uint64) error {
	cfg := config.Default(1)
	cfg.PerfectMemory = true
	sys, err := New(Options{Config: &cfg, Policy: "hf-rf", Apps: []workload.App{app}, Seed: seed})
	if err != nil {
		return err
	}
	res, err := sys.RunContext(ctx, instr, 0)
	if err != nil {
		return fmt.Errorf("sim: classifying %s: %w", app.Name, err)
	}
	p.PerfectIPC = res.Cores[0].IPC
	if p.IPC > 0 {
		p.Gain = p.PerfectIPC/p.IPC - 1
	}
	p.Class = workload.ILP
	if p.Gain > 0.15 {
		p.Class = workload.MEM
	}
	return nil
}

// ProfileAll profiles every application in apps and returns the ME vector in
// the same order, for feeding a subsequent evaluation run.
//
// Deprecated: use ProfileAllContext, which supports cancellation.
func ProfileAll(apps []workload.App, instr uint64, seed uint64) ([]Profile, []float64, error) {
	return ProfileAllContext(context.Background(), apps, instr, seed)
}

// ProfileAllContext is ProfileAll under a cancellable context.
func ProfileAllContext(ctx context.Context, apps []workload.App, instr uint64, seed uint64) ([]Profile, []float64, error) {
	profiles := make([]Profile, len(apps))
	mes := make([]float64, len(apps))
	for i, a := range apps {
		p, err := ProfileAppContext(ctx, a, instr, seed)
		if err != nil {
			return nil, nil, err
		}
		profiles[i] = p
		mes[i] = p.ME
	}
	return profiles, mes, nil
}

// RunMix runs a Table 3 workload under the named policy.
//
// Deprecated: use Run, which takes a context and a RunSpec.
func RunMix(mix workload.Mix, policy string, instrPerCore uint64, mes []float64, seed uint64) (Result, error) {
	return Run(context.Background(), RunSpec{Mix: mix, Policy: policy, Instr: instrPerCore, ME: mes, Seed: seed})
}
