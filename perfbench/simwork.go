package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"memsched"
	"memsched/internal/sim"
)

// Per-core instruction slices. profile_1core uses the repository's benchmark
// slice (bench_test.go). fig2_8mem uses half of it: an 8-core run then takes
// about half a host second, so a 30-second run has the 50-odd samples that
// put its tail percentile above the median.
const (
	profileInstr = 40_000
	fig2Instr    = 20_000
)

// setupReps is how many times a workload repeats its set-up; setup_s is the
// median.
const setupReps = 3

// refTol is sim.DiffResults' documented float tolerance between the
// cycle-skipping (or parallel-window) loop and the serial cycle-by-cycle one.
const refTol = 1e-9

// seedsFor derives the profiling and evaluation seeds from the benchmark
// seed; seed 0 gives the library defaults.
func seedsFor(seed uint64) (prof, eval uint64) {
	off := seed * 0x9E3779B97F4A7C15
	return memsched.ProfileSeed + off, memsched.EvalSeed + off
}

// simSpec is one distinct run a simulation workload cycles through.
type simSpec struct {
	label string
	opts  memsched.Options
	// base is the spec's first Result (and its parallel-window cycles);
	// every later run of the spec, traced or not, must reproduce it exactly.
	base      *memsched.Result
	winCycles int64
}

// simBench drives one simulation workload: ops cycle through specs, each op
// being one memsched.NewSystem + System.RunContext pair.
type simBench struct {
	instr uint64 // per-core slice of every run
	specs []*simSpec
	next  int // index of the next op in the spec cycle
	rep   *report
}

// phase is one timed loop's measurements.
type phase struct {
	durs, newDurs, runDurs []time.Duration
	bySpec                 [][]float64 // op seconds per spec
	allocBytes             uint64
	gcCycles               uint64
	cycles                 int64 // simulated measurement cycles over all ops
	taps                   tapTotals
}

// op runs the spec once and checks the result. Traced ops wrap the policy
// and generators; the wrapping happens inside the NewSystem timing because
// it replaces generator construction NewSystem would otherwise do.
func (b *simBench) op(ctx context.Context, sp *simSpec, traced bool, ph *phase) error {
	c0 := readCounters()
	t0 := time.Now()
	opts := sp.opts
	var tp *taps
	if traced {
		var err error
		if opts, tp, err = withTaps(opts); err != nil {
			return err
		}
	}
	sys, err := memsched.NewSystem(opts)
	if err != nil {
		return err
	}
	t1 := time.Now()
	res, runErr := sys.RunContext(ctx, b.instr, 0)
	t2 := time.Now()
	c1 := readCounters()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	_, win := sys.ParallelWindows()
	b.rep.attempted++
	if err := sp.check(res, runErr, win, b.instr); err != nil {
		b.rep.fail("%s (traced=%v): %v", sp.label, traced, err)
		return nil
	}
	if ph != nil {
		ph.durs = append(ph.durs, t2.Sub(t0))
		ph.newDurs = append(ph.newDurs, t1.Sub(t0))
		ph.runDurs = append(ph.runDurs, t2.Sub(t1))
		ph.allocBytes += c1.allocBytes - c0.allocBytes
		ph.gcCycles += c1.gcCycles - c0.gcCycles
		ph.cycles += res.TotalCycles
		if tp != nil {
			ph.taps.add(tp)
		}
	}
	return nil
}

// check validates one run: no error, every core at its slice, and — after
// the first run, which becomes the baseline — the same Result as the
// baseline with zero float tolerance.
func (sp *simSpec) check(res memsched.Result, runErr error, winCycles int64, instr uint64) error {
	if runErr != nil {
		return runErr
	}
	if len(res.Cores) != len(sp.opts.Apps) || res.TotalCycles <= 0 {
		return fmt.Errorf("%d core results, %d cycles", len(res.Cores), res.TotalCycles)
	}
	for i, c := range res.Cores {
		if c.Retired != instr || c.Cycles <= 0 {
			return fmt.Errorf("core %d retired %d of %d in %d cycles", i, c.Retired, instr, c.Cycles)
		}
	}
	if sp.base == nil {
		sp.base, sp.winCycles = &res, winCycles
		return nil
	}
	if d := sim.DiffResults(res, *sp.base, 0); len(d) > 0 {
		return fmt.Errorf("differs from the spec's first run in %d fields, first %s", len(d), d[0])
	}
	if res.SkippedCycles != sp.base.SkippedCycles {
		return fmt.Errorf("skipped %d cycles, first run %d", res.SkippedCycles, sp.base.SkippedCycles)
	}
	return nil
}

// loop runs whole passes over the specs until the deadline has passed.
func (b *simBench) loop(ctx context.Context, budget time.Duration, traced bool) (*phase, error) {
	ph := &phase{bySpec: make([][]float64, len(b.specs))}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) || b.next%len(b.specs) != 0 {
		k := b.next % len(b.specs)
		b.next++
		sp := b.specs[k]
		if traced && sp.base == nil {
			// The transparency check needs an untraced baseline.
			if err := b.op(ctx, sp, false, nil); err != nil {
				return nil, err
			}
		}
		n := len(ph.durs)
		if err := b.op(ctx, sp, traced, ph); err != nil {
			return nil, err
		}
		if len(ph.durs) > n {
			ph.bySpec[k] = append(ph.bySpec[k], ph.durs[n].Seconds())
		}
	}
	return ph, nil
}

// typical is the mean over specs of each spec's median op time, so a mix of
// fast and slow specs has a stable centre.
func (ph *phase) typical() float64 {
	var meds []float64
	for _, xs := range ph.bySpec {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// referenceCheck compares the first spec's baseline against a serial
// cycle-by-cycle run, once per invocation and outside any timed region.
func (b *simBench) referenceCheck(ctx context.Context) error {
	sp := b.specs[0]
	opts := sp.opts
	opts.NoCycleSkip, opts.ParallelCores = true, 1
	sys, err := memsched.NewSystem(opts)
	if err != nil {
		return err
	}
	res, err := sys.RunContext(ctx, b.instr, 0)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	b.rep.attempted++
	switch {
	case err != nil:
		b.rep.fail("%s serial reference: %v", sp.label, err)
	case sp.base == nil:
		b.rep.fail("%s has no baseline to compare with the serial reference", sp.label)
	default:
		if d := sim.DiffResults(*sp.base, res, refTol); len(d) > 0 {
			b.rep.fail("%s differs from the serial cycle-by-cycle reference in %d fields, first %s",
				sp.label, len(d), d[0])
		}
	}
	return nil
}

// run measures the workload: end-to-end metrics untraced, or per-layer
// metrics from an untraced half and a traced half.
func (b *simBench) run(ctx context.Context, cfg runConfig, setupS float64) error {
	m := b.rep.metrics
	m["setup_s"] = setupS
	if !cfg.traced {
		ph, err := b.loop(ctx, cfg.budget, false)
		if err != nil {
			return err
		}
		if len(ph.durs) == 0 {
			return fmt.Errorf("no run succeeded")
		}
		total := seconds(ph.durs)
		var sum float64
		for _, s := range total {
			sum += s
		}
		m["ops_per_s"] = float64(len(total)) / sum
		m["op_s_p50"] = ph.typical()
		tailV, tailPct := tail(total)
		m["op_s_tail"] = tailV
		m["alloc_mb_per_op"] = float64(ph.allocBytes) / 1e6 / float64(len(total))
		var cores int
		for _, sp := range b.specs {
			cores += len(sp.opts.Apps)
		}
		minstr := float64(b.instr) * float64(cores) / float64(len(b.specs)) / 1e6
		b.rep.notef("ops %d; run_s_tail is p%.1f; sim_minstr_per_s %.4f Minstr/s (%.3f Minstr per run)",
			len(total), tailPct, m["ops_per_s"]*minstr, minstr)
	} else {
		un, err := b.loop(ctx, cfg.budget/2, false)
		if err != nil {
			return err
		}
		prof, err := startProfile(cfg.profDir, cfg.name)
		if err != nil {
			return err
		}
		tr, err := b.loop(ctx, cfg.budget/2, true)
		lp, perr := prof.stop(ctx)
		if err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		if len(un.durs) == 0 || len(tr.durs) == 0 {
			return fmt.Errorf("no run succeeded")
		}
		lp.selfPct(m)
		m["bench.trace_overhead_pct"] = 100 * (tr.typical()/un.typical() - 1)
		var runNs int64
		for _, d := range tr.runDurs {
			runNs += d.Nanoseconds()
		}
		m["sim.host_ns_per_cycle"] = float64(runNs) / float64(tr.cycles)
		m["sim.new_ms"] = median(seconds(tr.newDurs)) * 1e3
		m["sim.run_s"] = median(seconds(tr.runDurs))
		m["runtime.gc_cycles"] = float64(tr.gcCycles) / float64(len(tr.durs))
		tr.taps.metrics(m, lp)
		b.modelMetrics()
		b.rep.notef("untraced ops %d, traced ops %d; profile %s (%v of samples)",
			len(un.durs), len(tr.durs), prof.path, lp.total)
	}
	return b.referenceCheck(ctx)
}

// modelMetrics fills the per-layer counters read from the baseline Results:
// the run loop's advance mode and the modelled machine's statistics, which a
// simulator-only speed change must leave identical. Each spec weighs the
// same.
func (b *simBench) modelMetrics() {
	m := b.rep.metrics
	var total, skipped, win, retired, reads, writes, drains int64
	var stall, mpki, qocc, qdelay, busUtil float64
	var coreN int
	var rowHits, rowAcc uint64
	for _, sp := range b.specs {
		r := sp.base
		if r == nil {
			continue
		}
		total += r.TotalCycles
		skipped += r.SkippedCycles
		win += sp.winCycles
		drains += int64(r.Drains)
		qocc += r.ReadQueueOcc
		busUtil += r.BusUtilization
		rowHits += r.DRAM.Hits
		rowAcc += r.DRAM.Accesses()
		for _, c := range r.Cores {
			coreN++
			retired += int64(c.Retired)
			reads += int64(c.MemReads)
			writes += int64(c.MemWrites)
			stall += c.RetireStallPct
			mpki += c.L2MissesPerKI
			qdelay += c.AvgQueueDelay * float64(c.MemReads)
		}
	}
	n := float64(len(b.specs))
	m["sim.skip_ratio"] = float64(skipped) / float64(total)
	m["sim.window_coverage"] = float64(win) / float64(total)
	m["sim.ticked_cycles"] = float64(total-skipped) / n
	m["cpu.retired"] = float64(retired) / n
	m["cpu.retire_stall_pct"] = 100 * stall / float64(coreN)
	m["cache.l2_mpki"] = mpki / float64(coreN)
	m["memctrl.reads"] = float64(reads) / n
	m["memctrl.writes"] = float64(writes) / n
	m["memctrl.drains"] = float64(drains) / n
	m["memctrl.read_queue_occ"] = qocc / n
	if reads > 0 {
		m["memctrl.queue_delay_cycles"] = qdelay / float64(reads)
	}
	if rowAcc > 0 {
		m["dram.row_hit_pct"] = 100 * float64(rowHits) / float64(rowAcc)
	}
	m["dram.bus_util"] = busUtil / n
}

// fig2Slices is how many evaluation slices (seed pairs) one fig2_8mem
// invocation cycles through. An 8-core run ends when its slowest core
// finishes, and under ME-LREQ that core's wait changes a lot from slice to
// slice: over ten seeds the cycles an HF-RF plus ME-LREQ pair simulates
// ranged from 405k to 634k. Averaging eight slices keeps the timings about
// the code rather than about the seed: with four, the spread of ops_per_s
// over ten seeds still reached 0.23 of its median.
const fig2Slices = 8

// fig2Slice is one evaluation slice's set-up outputs.
type fig2Slice struct {
	evalSeed     uint64
	mes, singles []float64
}

// runFig2 is the fig2_8mem workload: the paper's largest Fig. 2 point,
// 8MEM-4, alternating HF-RF and ME-LREQ 8-core runs over fig2Slices slices.
// Set-up is what a user runs first: for each slice, the profiling pass that
// yields ME-LREQ's ME values and the single-core evaluation-seed reference
// IPCs the SMT speedup divides by.
func runFig2(ctx context.Context, cfg runConfig) (*report, error) {
	mix, err := memsched.MixByName("8MEM-4")
	if err != nil {
		return nil, err
	}
	apps, err := mix.Apps()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var evalSlices []fig2Slice
	setupS, err := medianOf(setupReps, func() error {
		var got []fig2Slice
		for j := uint64(0); j < fig2Slices; j++ {
			profSeed, evalSeed := seedsFor(cfg.seed*fig2Slices + j)
			_, mes, err := memsched.ProfileAllContext(ctx, apps, fig2Instr, profSeed)
			if err != nil {
				return err
			}
			singles := make([]float64, len(apps))
			for i, a := range apps {
				p, err := memsched.ProfileAppContext(ctx, a, fig2Instr, evalSeed)
				if err != nil {
					return err
				}
				singles[i] = p.IPC
			}
			got = append(got, fig2Slice{evalSeed, mes, singles})
		}
		rep.attempted++
		if evalSlices != nil && !reflect.DeepEqual(got, evalSlices) {
			rep.fail("set-up is not deterministic: %v vs %v", got, evalSlices)
		}
		evalSlices = got
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b := &simBench{instr: fig2Instr, rep: rep}
	for j, sl := range evalSlices {
		for _, pol := range []string{"hf-rf", "me-lreq"} {
			b.specs = append(b.specs, &simSpec{label: fmt.Sprintf("8MEM-4/%s/slice%d", pol, j),
				opts: memsched.Options{Policy: pol, Apps: apps, ME: sl.mes, Seed: sl.evalSeed}})
		}
	}
	if err := b.run(ctx, cfg, setupS); err != nil {
		return nil, err
	}
	var gains []float64
	for j, sl := range evalSlices {
		var sp [2]float64
		for i, s := range b.specs[2*j : 2*j+2] {
			if s.base == nil {
				return rep, nil // its failure is already counted
			}
			if sp[i], err = memsched.SMTSpeedup(s.base.IPCs(), sl.singles); err != nil {
				rep.fail("SMT speedup of %s: %v", s.label, err)
				return rep, nil
			}
		}
		gains = append(gains, 100*(sp[1]/sp[0]-1))
	}
	gain := mean(gains)
	rep.metrics["sched.melreq_gain_pct"] = gain
	rep.notef("melreq_gain_pct %.3f%% (modelled; mean over the slices of %.3f; the paper reports a 19.9%% "+
		"8-core MEM average; the model is unvalidated against hardware)", gain, gains)
	return rep, nil
}

// runProfile1Core is the profile_1core workload: every Table 2 application
// profiled on one core and classified on perfect memory, the methodology
// step every experiment starts with. Each op is one of those single-core
// runs, built with exactly the options ProfileAppContext and ClassifyContext
// use (checked once per invocation). Set-up is one untimed warm-up pass over
// every spec, whose Results become the baseline later runs must reproduce.
func runProfile1Core(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	profSeed, _ := seedsFor(cfg.seed)
	perfect := memsched.DefaultConfig(1)
	perfect.PerfectMemory = true
	b := &simBench{instr: profileInstr, rep: rep}
	apps := memsched.Apps()
	for _, a := range apps {
		one := []memsched.App{a}
		b.specs = append(b.specs,
			&simSpec{label: a.Name + "/profile",
				opts: memsched.Options{Policy: "hf-rf", Apps: one, Seed: profSeed}},
			&simSpec{label: a.Name + "/classify",
				opts: memsched.Options{Config: &perfect, Policy: "hf-rf", Apps: one, Seed: profSeed}})
	}
	setupS, err := medianOf(setupReps, func() error {
		for _, sp := range b.specs {
			if err := b.op(ctx, sp, false, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := b.run(ctx, cfg, setupS); err != nil {
		return nil, err
	}

	// The ops must be the runs the public profiling API performs.
	p, err := memsched.ProfileAppContext(ctx, apps[0], profileInstr, profSeed)
	if err == nil {
		err = memsched.ClassifyContext(ctx, apps[0], &p, profileInstr, profSeed)
	}
	rep.attempted++
	switch {
	case err != nil:
		rep.fail("profiling %s: %v", apps[0].Name, err)
	case b.specs[0].base == nil || b.specs[1].base == nil:
		rep.fail("%s has no baseline to compare with the profiling API", apps[0].Name)
	case p.IPC != b.specs[0].base.Cores[0].IPC || p.PerfectIPC != b.specs[1].base.Cores[0].IPC:
		rep.fail("%s: profiling API gives IPC %v / perfect %v, ops gave %v / %v", apps[0].Name,
			p.IPC, p.PerfectIPC, b.specs[0].base.Cores[0].IPC, b.specs[1].base.Cores[0].IPC)
	}
	return rep, nil
}
