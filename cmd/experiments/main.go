// Command experiments regenerates every table and figure of the paper's
// evaluation (ICPP 2008). Each experiment prints an aligned text table to
// stdout and, with -csvdir, also writes a CSV file. The orchestration
// (profiling, caching, parallel sweeps) lives in internal/lab; this command
// is presentation only.
//
// Usage:
//
//	experiments -exp all                  # everything (default)
//	experiments -exp fig2 -instr 200000   # one experiment, custom slice
//	experiments -exp fig2 -parallel 8     # fan evaluations across 8 workers
//	experiments -exp all -resume exp.ckpt.json   # checkpoint + resume
//	experiments -exp ablation,extended    # beyond-paper sweeps
//
// Experiments: table1, table2, table3, fig2, fig3, fig4, fig5, ablation,
// extended, noise, energy, skip, telemetry, fairness-battleground, slo-pack.
//
// The fairness-battleground experiment runs the head-to-head fairness
// comparison: classic throughput policies (hf-rf, lreq, me-lreq) against
// fairness-oriented schedulers (fq, bliss, cads) on the Figure 2 MEM
// workloads, scored on SMT speedup, maximum slowdown, unfairness and harmonic
// speedup plus a hardware-complexity proxy (scheduler state bits per core,
// sched.StateBits). -fbcores picks the core count (default 8).
//
// The telemetry experiment samples epoch time series (per-core IPC, pending
// reads, live priorities) from single runs and prints them as sparklines;
// with -telemetry DIR it also exports CSV/JSON/Chrome-trace files per policy
// (load DIR/<policy>/trace.json at ui.perfetto.dev). -epoch sets the sampling
// window in cycles.
//
// Evaluation sweeps run on internal/runner's worker pool: -parallel sets the
// width (results are identical for every width), -resume names a JSON
// checkpoint that persists completed evaluations so an interrupted invocation
// picks up where it stopped, and Ctrl-C cancels mid-simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"memsched/internal/cliflags"
	"memsched/internal/config"
	"memsched/internal/lab"
	"memsched/internal/metrics"
	"memsched/internal/prof"
	"memsched/internal/report"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/telemetry"
	"memsched/internal/workload"
)

var (
	expFlag      = flag.String("exp", "all", "experiments to run, comma separated (table1|table2|table3|fig2|fig3|fig4|fig5|ablation|extended|noise|energy|skip|telemetry|fairness-battleground|slo-pack|all)")
	instrFlag    = flag.Uint64("instr", 200_000, "instructions per core in evaluation runs")
	profFlag     = flag.Uint64("profinstr", 200_000, "instructions for profiling runs")
	csvDirFlag   = flag.String("csvdir", "", "directory to also write CSV outputs into")
	seedFlag     = flag.Uint64("seed", sim.EvalSeed, "evaluation seed (profiling uses a disjoint seed)")
	onlineFlag   = flag.Bool("online", false, "additionally evaluate me-lreq with online ME estimation in fig2")
	replicasFlag = flag.Int("replicas", 5, "seeds per measurement in the noise experiment")
	parallelFlag = cliflags.Parallel(flag.CommandLine)
	resumeFlag   = cliflags.Resume(flag.CommandLine)
	progressFlag = cliflags.Progress(flag.CommandLine)
	verboseFlag  = flag.Bool("v", false, "log per-run progress to stderr")
	cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	telemDirFlag = flag.String("telemetry", "", "directory for telemetry exports of the telemetry experiment (CSV/JSON/trace-event per policy)")
	epochFlag    = flag.Int64("epoch", 0, "telemetry sampling epoch in cycles (0 = default)")
	fbCoresFlag  = flag.Int("fbcores", 8, "core count for the fairness-battleground experiment (2, 4 or 8)")
	sloCoresFlag = flag.Int("slocores", 8, "largest core count in the slo-pack density sweep (2, 4 or 8)")
)

// figure2Policies is the evaluation set of paper Section 5.1.
var figure2Policies = []string{"hf-rf", "me", "rr", "lreq", "me-lreq"}

func main() {
	flag.Parse()
	stopProf, err := prof.Start(*cpuProfFlag, *memProfFlag)
	if err != nil {
		fatal(err)
	}
	if *csvDirFlag != "" {
		if err := os.MkdirAll(*csvDirFlag, 0o755); err != nil {
			fatal(err)
		}
	}
	opts := lab.Options{Instr: *instrFlag, ProfInstr: *profFlag, Seed: *seedFlag,
		Workers:    *parallelFlag,
		Checkpoint: *resumeFlag, Progress: *progressFlag}
	if *verboseFlag || *progressFlag > 0 {
		opts.Logf = func(format string, args ...any) {
			// Progress lines always reach stderr; per-run lines only with -v.
			if !*verboseFlag && !strings.HasPrefix(format, "runner:") {
				return
			}
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	l := lab.New(opts)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runners := map[string]func(context.Context, *lab.Lab) error{
		"table1":    table1,
		"table2":    table2,
		"table3":    table3,
		"fig2":      figure2,
		"fig3":      figure3,
		"fig4":      figure4,
		"fig5":      figure5,
		"ablation":  ablation,
		"extended":  extended,
		"noise":     noise,
		"energy":    energy,
		"skip":      skipReport,
		"telemetry": telemetryReport,

		"fairness-battleground": fairnessBattleground,
		"slo-pack":              sloPack,
	}
	order := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "ablation", "extended", "noise", "energy", "skip", "telemetry", "fairness-battleground", "slo-pack"}
	want := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		want = order
	}
	for _, name := range want {
		r, ok := runners[strings.TrimSpace(name)]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(order, ", ")))
		}
		if err := r(ctx, l); err != nil {
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// emit prints a table and optionally writes its CSV twin.
func emit(t *report.Table, csvName string) {
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
	if *csvDirFlag == "" {
		return
	}
	f, err := os.Create(filepath.Join(*csvDirFlag, csvName+".csv"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		fatal(err)
	}
}

// table1 prints the simulation parameters actually in force.
func table1(context.Context, *lab.Lab) error {
	cfg := config.Default(4)
	if err := cfg.Validate(); err != nil {
		return err
	}
	d := cfg.DRAMCycles()
	t := report.NewTable("Table 1: major simulation parameters", "parameter", "value")
	t.AddRow("processor", fmt.Sprintf("1/2/4/8 cores, %.1f GHz, %d-issue, %d-stage pipeline",
		cfg.Core.FreqGHz, cfg.Core.IssueWidth, cfg.Core.PipelineDepth))
	t.AddRow("functional units", fmt.Sprintf("%d IntALU, %d IntMult, %d FPALU, %d FPMult",
		cfg.Core.IntALUs, cfg.Core.IntMults, cfg.Core.FPALUs, cfg.Core.FPMults))
	t.AddRow("IQ/ROB/LQ/SQ", fmt.Sprintf("%d / %d / %d / %d",
		cfg.Core.IQSize, cfg.Core.ROBSize, cfg.Core.LQSize, cfg.Core.SQSize))
	t.AddRow("L1I (per core)", fmt.Sprintf("%dKB, %d-way, %dB line, %d-cycle, %d MSHRs",
		cfg.L1I.SizeBytes>>10, cfg.L1I.Assoc, cfg.L1I.LineBytes, cfg.L1I.HitLatency, cfg.L1I.MSHRs))
	t.AddRow("L1D (per core)", fmt.Sprintf("%dKB, %d-way, %dB line, %d-cycle, %d MSHRs",
		cfg.L1D.SizeBytes>>10, cfg.L1D.Assoc, cfg.L1D.LineBytes, cfg.L1D.HitLatency, cfg.L1D.MSHRs))
	t.AddRow("L2 (shared)", fmt.Sprintf("%dMB, %d-way, %dB line, %d-cycle, %d MSHRs",
		cfg.L2.SizeBytes>>20, cfg.L2.Assoc, cfg.L2.LineBytes, cfg.L2.HitLatency, cfg.L2.MSHRs))
	t.AddRow("memory", fmt.Sprintf("%d logic channels, %d ranks/chan, %d banks/rank, %dKB row",
		cfg.Memory.Channels, cfg.Memory.RanksPerChan, cfg.Memory.BanksPerRank, cfg.Memory.RowBytes>>10))
	t.AddRow("channel bandwidth", fmt.Sprintf("%.1f GB/s per logic channel", cfg.Memory.BusBytesPerNs))
	t.AddRow("DRAM timing", fmt.Sprintf("tRP=tRCD=tCL=%.1fns (%d cycles each), burst %d cycles",
		cfg.Memory.Timing.TRPns, d.TRP, d.Burst))
	t.AddRow("row policy", cfg.Memory.RowPolicy.String())
	t.AddRow("memory controller", fmt.Sprintf("%d-entry buffer, %.0fns overhead (%d cycles)",
		cfg.Memory.ReadQueueCap, cfg.Memory.CtrlOverheadNs, d.CtrlOverhead))
	t.AddRow("priority tables", fmt.Sprintf("%d entries x %d bits per core (640N bits total)",
		cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits))
	emit(t, "table1")
	return nil
}

// table2 profiles all 26 applications and classifies them with a perfect
// memory run (paper Section 4.2 methodology).
func table2(ctx context.Context, l *lab.Lab) error {
	t := report.NewTable(
		"Table 2: application class and memory efficiency (measured vs paper)",
		"app", "code", "IPC", "BW GB/s", "mem/KI", "ME meas", "ME paper", "perf gain", "class meas", "class paper")
	for _, a := range workload.Apps() {
		p, err := l.ProfileContext(ctx, a.Code)
		if err != nil {
			return err
		}
		if err := sim.ClassifyContext(ctx, a, &p, *profFlag, sim.ProfileSeed); err != nil {
			return err
		}
		l.SetProfile(a.Code, p)
		t.AddRow(a.Name, string(a.Code),
			fmt.Sprintf("%.3f", p.IPC), fmt.Sprintf("%.2f", p.BWGBs),
			fmt.Sprintf("%.2f", p.MemMPKI),
			fmt.Sprintf("%.3f", p.ME), fmt.Sprintf("%.0f", a.PaperME),
			report.Pct(p.Gain), p.Class.String(), a.Class.String())
	}
	emit(t, "table2")
	return nil
}

// table3 prints the workload mixes.
func table3(context.Context, *lab.Lab) error {
	t := report.NewTable("Table 3: workload mixes", "workload", "codes", "applications")
	for _, m := range workload.Mixes() {
		apps, err := m.Apps()
		if err != nil {
			return err
		}
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Name
		}
		t.AddRow(m.Name, m.Codes, strings.Join(names, " "))
	}
	emit(t, "table3")
	return nil
}

// figure2 sweeps all mixes and policies and reports SMT speedups.
func figure2(ctx context.Context, l *lab.Lab) error {
	policies := figure2Policies
	if *onlineFlag {
		policies = append(append([]string{}, policies...), lab.OnlinePolicy)
	}
	var allMixes []workload.Mix
	for _, cores := range []int{2, 4, 8} {
		allMixes = append(allMixes, workload.MixesFor(cores, "")...)
	}
	if err := l.PrimeContext(ctx, allMixes, policies); err != nil {
		return err
	}

	headers := append([]string{"workload"}, policies...)
	headers = append(headers, "ME-LREQ vs HF-RF", "ME-LREQ vs LREQ")
	t := report.NewTable("Figure 2: SMT speedup by scheduling policy", headers...)

	type key struct {
		cores int
		group string
	}
	sums := map[key]map[string]float64{}
	counts := map[key]int{}
	for _, cores := range []int{2, 4, 8} {
		for _, group := range []string{"MEM", "MIX"} {
			for _, mix := range workload.MixesFor(cores, group) {
				row := []string{mix.Name}
				byPolicy := map[string]float64{}
				for _, pol := range policies {
					out, err := l.RunContext(ctx, mix, pol)
					if err != nil {
						return err
					}
					byPolicy[pol] = out.Speedup
					row = append(row, fmt.Sprintf("%.3f", out.Speedup))
				}
				row = append(row,
					report.Pct(metrics.RelativeGain(byPolicy["me-lreq"], byPolicy["hf-rf"])),
					report.Pct(metrics.RelativeGain(byPolicy["me-lreq"], byPolicy["lreq"])))
				t.AddRow(row...)
				k := key{cores, group}
				if sums[k] == nil {
					sums[k] = map[string]float64{}
				}
				for p, v := range byPolicy {
					sums[k][p] += v
				}
				counts[k]++
			}
		}
	}
	for _, cores := range []int{2, 4, 8} {
		for _, group := range []string{"MEM", "MIX"} {
			k := key{cores, group}
			if counts[k] == 0 {
				continue
			}
			row := []string{fmt.Sprintf("avg %d%s", cores, group)}
			n := float64(counts[k])
			for _, pol := range policies {
				row = append(row, fmt.Sprintf("%.3f", sums[k][pol]/n))
			}
			row = append(row,
				report.Pct(metrics.RelativeGain(sums[k]["me-lreq"], sums[k]["hf-rf"])),
				report.Pct(metrics.RelativeGain(sums[k]["me-lreq"], sums[k]["lreq"])))
			t.AddRow(row...)
		}
	}
	emit(t, "fig2")

	chart := report.NewChart("Figure 2 (chart): average SMT speedup, 8-core MEM workloads", 40)
	k8 := key{8, "MEM"}
	if counts[k8] > 0 {
		for _, pol := range policies {
			chart.Add(pol, sums[k8][pol]/float64(counts[k8]))
		}
		if err := chart.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// figure3 compares fixed-priority orders on the 4-core platform.
func figure3(ctx context.Context, l *lab.Lab) error {
	policies := []string{"hf-rf", "me", "fix:3210", "fix:0123"}
	if err := l.PrimeContext(ctx, workload.MixesFor(4, ""), policies); err != nil {
		return err
	}
	headers := append([]string{"workload"}, policies...)
	t := report.NewTable("Figure 3: simple and fixed priority schemes (4-core)", headers...)
	for _, group := range []string{"MEM", "MIX"} {
		for _, mix := range workload.MixesFor(4, group) {
			row := []string{mix.Name}
			for _, pol := range policies {
				out, err := l.RunContext(ctx, mix, pol)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.3f", out.Speedup))
			}
			t.AddRow(row...)
		}
	}
	emit(t, "fig3")
	return nil
}

// skipReport documents the quiescence-aware run loop: for one mix per core
// count it reports how many simulated cycles next-event time advance jumped
// over (the skip ratio), per policy. Purely diagnostic — the skipped cycles
// are fully accounted for in every other column of every other table.
func skipReport(ctx context.Context, l *lab.Lab) error {
	mixNames := []string{"2MEM-1", "4MEM-1", "8MEM-1", "4MIX-1"}
	policies := []string{"hf-rf", "lreq", "me-lreq"}
	var mixes []workload.Mix
	for _, name := range mixNames {
		mix, err := workload.MixByName(name)
		if err != nil {
			return err
		}
		mixes = append(mixes, mix)
	}
	if err := l.PrimeContext(ctx, mixes, policies); err != nil {
		return err
	}
	var headers []string
	for _, pol := range policies {
		headers = append(headers, pol+" skip%")
	}
	t := report.NewTable("Cycle skipping: fraction of simulated cycles jumped by next-event advance",
		append([]string{"workload", "total cycles"}, headers...)...)
	for _, mix := range mixes {
		var row []string
		for _, pol := range policies {
			out, err := l.RunContext(ctx, mix, pol)
			if err != nil {
				return err
			}
			if row == nil {
				row = []string{mix.Name, fmt.Sprintf("%d", out.Result.TotalCycles)}
			}
			ratio := 0.0
			if out.Result.TotalCycles > 0 {
				ratio = float64(out.Result.SkippedCycles) / float64(out.Result.TotalCycles)
			}
			row = append(row, fmt.Sprintf("%.1f%%", 100*ratio))
		}
		t.AddRow(row...)
	}
	emit(t, "skip")
	return nil
}

// telemetryReport demonstrates the epoch-sampled telemetry layer: it runs
// 4MEM-1 under hf-rf and me-lreq with a collector attached and prints the
// per-core IPC and pending-read series as sparklines — the time-resolved view
// of why ME-LREQ wins (pending-read pressure from inefficient cores is
// deprioritized, so efficient cores' IPC recovers). With -telemetry DIR every
// run additionally exports its CSV/JSON/trace-event file set to DIR/<policy>.
func telemetryReport(ctx context.Context, l *lab.Lab) error {
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		return err
	}
	mes, _, err := l.MixVectorsContext(ctx, mix)
	if err != nil {
		return err
	}
	for _, pol := range []string{"hf-rf", "me-lreq"} {
		opts := telemetry.Options{Epoch: *epochFlag}
		if *telemDirFlag != "" {
			opts.Dir = filepath.Join(*telemDirFlag, pol)
			opts.Commands = true
		}
		var snap *telemetry.Snapshot
		opts.Sink = func(s *telemetry.Snapshot) { snap = s }
		if _, err := sim.Run(ctx, sim.RunSpec{Mix: mix, Policy: pol, Instr: *instrFlag,
			ME: mes, Seed: *seedFlag, Telemetry: &opts}); err != nil {
			return err
		}
		ipc := report.NewSeries(fmt.Sprintf("Telemetry: per-core IPC over epochs, 4MEM-1 under %s", pol), 60)
		pending := report.NewSeries(fmt.Sprintf("Telemetry: per-core pending reads over epochs, 4MEM-1 under %s", pol), 60)
		for core := 0; core < snap.Cores; core++ {
			ipcs := make([]float64, len(snap.Epochs))
			pend := make([]float64, len(snap.Epochs))
			for i, ep := range snap.Epochs {
				ipcs[i] = ep.Cores[core].IPC
				pend[i] = float64(ep.Cores[core].PendingReads)
			}
			label := fmt.Sprintf("core%d", core)
			ipc.Add(label, ipcs)
			pending.Add(label, pend)
		}
		for _, s := range []*report.Series{ipc, pending} {
			if err := s.WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if opts.Dir != "" {
			fmt.Printf("telemetry exports written to %s\n\n", opts.Dir)
		}
	}
	return nil
}

// figure4 reports average read latency per policy (left) and per-core read
// latencies for 4MEM-1 and 4MEM-5 (right).
func figure4(ctx context.Context, l *lab.Lab) error {
	if err := l.PrimeContext(ctx, workload.MixesFor(4, "MEM"), figure2Policies); err != nil {
		return err
	}
	t := report.NewTable("Figure 4 (left): average memory read latency, 4-core MEM workloads (cycles)",
		append([]string{"workload"}, figure2Policies...)...)
	perCore := report.NewTable("Figure 4 (right): per-core read latency (cycles)",
		"workload", "policy", "core0", "core1", "core2", "core3")
	for _, mix := range workload.MixesFor(4, "MEM") {
		row := []string{mix.Name}
		for _, pol := range figure2Policies {
			out, err := l.RunContext(ctx, mix, pol)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", out.Result.AvgReadLatency))
			if mix.Name == "4MEM-1" || mix.Name == "4MEM-5" {
				pcRow := []string{mix.Name, pol}
				for _, c := range out.Result.Cores {
					pcRow = append(pcRow, fmt.Sprintf("%.0f", c.AvgReadLatency))
				}
				perCore.AddRow(pcRow...)
			}
		}
		t.AddRow(row...)
	}
	emit(t, "fig4")
	emit(perCore, "fig4percore")
	return nil
}

// figure5 reports unfairness (max slowdown / min slowdown).
func figure5(ctx context.Context, l *lab.Lab) error {
	if err := l.PrimeContext(ctx, workload.MixesFor(4, "MEM"), figure2Policies); err != nil {
		return err
	}
	t := report.NewTable("Figure 5: unfairness (max/min slowdown), 4-core MEM workloads",
		append([]string{"workload"}, figure2Policies...)...)
	sums := map[string]float64{}
	n := 0
	for _, mix := range workload.MixesFor(4, "MEM") {
		row := []string{mix.Name}
		for _, pol := range figure2Policies {
			u, err := l.Unfairness(mix, pol)
			if err != nil {
				return err
			}
			sums[pol] += u
			row = append(row, fmt.Sprintf("%.3f", u))
		}
		n++
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, pol := range figure2Policies {
		avg = append(avg, fmt.Sprintf("%.3f", sums[pol]/float64(n)))
	}
	t.AddRow(avg...)
	emit(t, "fig5")

	chart := report.NewChart("Figure 5 (chart): average unfairness, 4-core MEM workloads (lower is fairer)", 40)
	for _, pol := range figure2Policies {
		chart.Add(pol, sums[pol]/float64(n))
	}
	if err := chart.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// extended compares ME-LREQ against simplified versions of its related work
// (fair queueing [Nesbit et al. '06] and burst scheduling [Shao & Davis
// '07]) and against the online-ME variant, on the 4- and 8-core MEM
// workloads — comparisons the paper discusses but does not run.
func extended(ctx context.Context, l *lab.Lab) error {
	policies := []string{"hf-rf", "lreq", "me-lreq", "fq", "burst", lab.OnlinePolicy}
	mixes := append(workload.MixesFor(4, "MEM"), workload.MixesFor(8, "MEM")...)
	if err := l.PrimeContext(ctx, mixes, policies); err != nil {
		return err
	}
	headers := append([]string{"workload"}, policies...)
	t := report.NewTable("Extended: ME-LREQ vs related-work schedulers (SMT speedup)", headers...)
	sums := map[string]float64{}
	for _, mix := range mixes {
		row := []string{mix.Name}
		for _, pol := range policies {
			out, err := l.RunContext(ctx, mix, pol)
			if err != nil {
				return err
			}
			sums[pol] += out.Speedup
			row = append(row, fmt.Sprintf("%.3f", out.Speedup))
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for _, pol := range policies {
		avg = append(avg, fmt.Sprintf("%.3f", sums[pol]/float64(len(mixes))))
	}
	t.AddRow(avg...)
	emit(t, "extended")
	return nil
}

// ablation sweeps design choices beyond the paper: priority-table
// quantization width, controller buffer size, channel count, write-drain
// watermarks, row policy and refresh, all on the 4-core MEM workloads under
// me-lreq.
func ablation(ctx context.Context, l *lab.Lab) error {
	mixes := workload.MixesFor(4, "MEM")

	runWith := func(mut func(*config.Config)) (float64, error) {
		total := 0.0
		for _, mix := range mixes {
			mes, singles, err := l.MixVectorsContext(ctx, mix)
			if err != nil {
				return 0, err
			}
			apps, err := mix.Apps()
			if err != nil {
				return 0, err
			}
			cfg := config.Default(len(apps))
			mut(&cfg)
			res, err := sim.Run(ctx, sim.RunSpec{Config: &cfg, Policy: "me-lreq",
				Apps: apps, ME: mes, Seed: *seedFlag, Instr: *instrFlag})
			if err != nil {
				return 0, err
			}
			sp, err := metrics.SMTSpeedup(res.IPCs(), singles)
			if err != nil {
				return 0, err
			}
			total += sp
		}
		return total / float64(len(mixes)), nil
	}

	t := report.NewTable("Ablation: me-lreq design choices (avg SMT speedup over 4-core MEM)",
		"dimension", "setting", "avg speedup")
	addRow := func(dim, setting string, mut func(*config.Config)) error {
		sp, err := runWith(mut)
		if err != nil {
			return err
		}
		t.AddRow(dim, setting, fmt.Sprintf("%.3f", sp))
		return nil
	}

	for _, bits := range []int{0, 4, 6, 10} {
		label := fmt.Sprintf("%d-bit", bits)
		if bits == 0 {
			label = "exact (no quantization)"
		}
		b := bits
		if err := addRow("priority table width", label, func(c *config.Config) { c.Memory.PriorityBits = b }); err != nil {
			return err
		}
	}
	for _, buf := range []int{16, 32, 64, 128} {
		b := buf
		if err := addRow("controller buffer", fmt.Sprintf("%d entries", buf), func(c *config.Config) {
			c.Memory.ReadQueueCap = b
			c.Memory.WriteQueueCap = b
		}); err != nil {
			return err
		}
	}
	for _, ch := range []int{1, 2, 4} {
		v := ch
		if err := addRow("logic channels", fmt.Sprint(ch), func(c *config.Config) { c.Memory.Channels = v }); err != nil {
			return err
		}
	}
	for _, wm := range [][2]float64{{0.25, 0.125}, {0.5, 0.25}, {0.75, 0.5}} {
		w := wm
		if err := addRow("write drain watermarks", fmt.Sprintf("%.2f/%.3f", wm[0], wm[1]), func(c *config.Config) {
			c.Memory.DrainHigh, c.Memory.DrainLow = w[0], w[1]
		}); err != nil {
			return err
		}
	}
	for _, rp := range []config.RowPolicy{config.ClosePageHitAware, config.OpenPage, config.ClosePageStrict} {
		p := rp
		if err := addRow("row policy", rp.String(), func(c *config.Config) { c.Memory.RowPolicy = p }); err != nil {
			return err
		}
	}
	// The pairing the paper explicitly rejects in Section 4.1: open page
	// with page interleaving, vs its choice of close page with cache-line
	// interleaving (the default row above).
	if err := addRow("mapping pairing", "open page + page interleave", func(c *config.Config) {
		c.Memory.RowPolicy = config.OpenPage
		c.Memory.PageInterleave = true
	}); err != nil {
		return err
	}
	if err := addRow("refresh", "disabled (paper model)", func(*config.Config) {}); err != nil {
		return err
	}
	if err := addRow("refresh", "tREFI 7.8us, tRFC 127.5ns", func(c *config.Config) {
		c.Memory.EnableRefresh()
	}); err != nil {
		return err
	}
	for _, pf := range []bool{false, true} {
		label := "off (paper model)"
		if pf {
			label = "next-line at L2"
		}
		v := pf
		if err := addRow("stream prefetch", label, func(c *config.Config) {
			c.L2StreamPrefetch = v
		}); err != nil {
			return err
		}
	}
	emit(t, "ablation")
	return nil
}

// noise estimates run-to-run variance: representative workloads are
// evaluated across several seeds and reported as mean ± standard deviation,
// so readers can judge which Figure 2 differences exceed measurement noise —
// a check the paper's single-run methodology cannot provide.
func noise(ctx context.Context, l *lab.Lab) error {
	t := report.NewTable(
		fmt.Sprintf("Noise: SMT speedup across %d seeds (mean ± stddev)", *replicasFlag),
		"workload", "policy", "mean", "stddev", "min", "max")
	for _, mixName := range []string{"4MEM-1", "4MEM-5", "8MEM-4"} {
		mix, err := workload.MixByName(mixName)
		if err != nil {
			return err
		}
		for _, pol := range []string{"hf-rf", "lreq", "me-lreq"} {
			rep, err := l.RunReplicated(mix, pol, *replicasFlag)
			if err != nil {
				return err
			}
			lo, hi := rep.Samples[0], rep.Samples[0]
			for _, s := range rep.Samples {
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			t.AddRow(mix.Name, pol,
				fmt.Sprintf("%.3f", rep.Mean),
				fmt.Sprintf("%.3f", rep.StdDev),
				fmt.Sprintf("%.3f", lo), fmt.Sprintf("%.3f", hi))
		}
	}
	emit(t, "noise")
	return nil
}

// fairnessBattlegroundPolicies pits the paper's throughput-centric policies
// against the fairness-oriented schedulers of the follow-on literature.
var fairnessBattlegroundPolicies = []string{"hf-rf", "lreq", "me-lreq", "fq", "bliss", "cads"}

// fairnessBattleground runs the head-to-head fairness comparison on the
// Figure 2 MEM workloads at -fbcores cores: every policy scored on throughput
// (SMT speedup), fairness (maximum slowdown, unfairness, harmonic speedup) and
// hardware cost (scheduler state bits per core, per sched.StateBits). The
// per-workload table shows each run; the summary table averages across the
// mixes and appends the complexity column.
func fairnessBattleground(ctx context.Context, l *lab.Lab) error {
	cores := *fbCoresFlag
	mixes := workload.MixesFor(cores, "MEM")
	if len(mixes) == 0 {
		return fmt.Errorf("fairness-battleground: no MEM mixes for %d cores", cores)
	}
	policies := fairnessBattlegroundPolicies
	if err := l.PrimeContext(ctx, mixes, policies); err != nil {
		return err
	}

	detail := report.NewTable(
		fmt.Sprintf("Fairness battleground: per-workload metrics (%d-core MEM workloads)", cores),
		"workload", "policy", "SMT speedup", "max slowdown", "unfairness", "harmonic speedup")
	sums := map[string]*lab.FairnessOut{}
	for _, mix := range mixes {
		for _, pol := range policies {
			f, err := l.FairnessContext(ctx, mix, pol)
			if err != nil {
				return err
			}
			detail.AddRow(mix.Name, pol,
				fmt.Sprintf("%.3f", f.Speedup),
				fmt.Sprintf("%.3f", f.MaxSlowdown),
				fmt.Sprintf("%.3f", f.Unfairness),
				fmt.Sprintf("%.3f", f.HarmonicSpeedup))
			s := sums[pol]
			if s == nil {
				s = &lab.FairnessOut{}
				sums[pol] = s
			}
			s.Speedup += f.Speedup
			s.MaxSlowdown += f.MaxSlowdown
			s.Unfairness += f.Unfairness
			s.HarmonicSpeedup += f.HarmonicSpeedup
		}
	}
	emit(detail, "fairness-battleground-detail")

	cfg := config.Default(cores)
	summary := report.NewTable(
		fmt.Sprintf("Fairness battleground: averages over %d MEM workloads + hardware cost", len(mixes)),
		"policy", "SMT speedup", "max slowdown", "unfairness", "harmonic speedup", "state bits/core")
	n := float64(len(mixes))
	for _, pol := range policies {
		bits, err := sched.StateBits(pol, cores, cfg.Memory.MaxPendingPerCore, cfg.Memory.PriorityBits)
		if err != nil {
			return err
		}
		s := sums[pol]
		summary.AddRow(pol,
			fmt.Sprintf("%.3f", s.Speedup/n),
			fmt.Sprintf("%.3f", s.MaxSlowdown/n),
			fmt.Sprintf("%.3f", s.Unfairness/n),
			fmt.Sprintf("%.3f", s.HarmonicSpeedup/n),
			fmt.Sprintf("%.1f", float64(bits)/float64(cores)))
	}
	emit(summary, "fairness-battleground")
	return nil
}

// sloPackPolicies pits the class-blind schedulers against the deadline-aware
// dash policy on the latency-critical serving battleground.
var sloPackPolicies = []string{"hf-rf", "lreq", "me-lreq", "fq", "bliss", "cads", "dash"}

// sloPackBudget is the fixed LC tail-latency SLO: p99 read latency at or
// below this many cycles — about 1.7x the LC application's lightly-colocated
// tail (~290 cycles at one BE neighbor). It sits above every scheduler's
// low-density tail and below the class-blind schedulers' seven-neighbor
// tails, so the sweep actually discriminates: a deadline-aware scheduler can
// hold the SLO at full colocation, a class-blind one cannot.
const sloPackBudget int64 = 500

// sloPack runs the latency-critical vs best-effort serving battleground: one
// LC application (wupwise, a moderate MEM program standing in for a serving
// tenant) on core 0 with a p99 read-latency SLO, colocated with an
// increasingly dense pack of memory-hungry best-effort programs (swim, applu,
// mcf round-robin) at 1, 3 and 7 BE cores. Every policy runs every density;
// the detail table reports the LC tail and the aggregate BE throughput, and
// the summary scores each policy the way serving clusters are scored: the
// maximum BE throughput it sustains while the LC SLO still holds
// (metrics.MaxBEAtSLO).
func sloPack(ctx context.Context, l *lab.Lab) error {
	const lcCode = "b"
	const beCycle = "gfj"
	densities := []int{1, 3, 7}

	var jobs []lab.ClassedJob
	type point struct {
		mix     workload.Mix
		classes []workload.ServiceClass
		beCores int
	}
	var points []point
	for _, d := range densities {
		if 1+d > *sloCoresFlag {
			continue
		}
		codes := lcCode
		for i := 0; i < d; i++ {
			codes += string(beCycle[i%len(beCycle)])
		}
		mix := workload.Mix{Name: fmt.Sprintf("SLO-%d", 1+d), Codes: codes}
		classes, err := workload.ParseServiceClasses("L"+strings.Repeat("B", d), 1+d)
		if err != nil {
			return err
		}
		points = append(points, point{mix, classes, d})
		for _, pol := range sloPackPolicies {
			jobs = append(jobs, lab.ClassedJob{Mix: mix, Policy: pol, Classes: classes})
		}
	}
	if len(points) == 0 {
		return fmt.Errorf("slo-pack: -slocores %d leaves no density to sweep", *sloCoresFlag)
	}
	if err := l.PrimeClassedContext(ctx, jobs); err != nil {
		return err
	}

	detail := report.NewTable(
		fmt.Sprintf("SLO battleground: LC wupwise vs BE colocation density (SLO: LC p99 <= %d cycles)", sloPackBudget),
		"BE cores", "policy", "LC p99", "LC p99.9", "LC attain", "BE IPC", "SLO")
	pointsByPolicy := map[string][]metrics.SLOPoint{}
	for _, pt := range points {
		for _, pol := range sloPackPolicies {
			out, err := l.RunClassedContext(ctx, pt.mix, pol, pt.classes)
			if err != nil {
				return err
			}
			lc := out.Result.ClassLat[workload.LC]
			beIPC := 0.0
			for _, c := range out.Result.Cores {
				if c.Service == workload.BE {
					beIPC += c.IPC
				}
			}
			met := "miss"
			if lc.P99 <= sloPackBudget {
				met = "met"
			}
			detail.AddRow(fmt.Sprint(pt.beCores), pol,
				fmt.Sprint(lc.P99), fmt.Sprint(lc.P999),
				fmt.Sprintf("%.4f", metrics.Attainment(&lc.Hist, sloPackBudget)),
				fmt.Sprintf("%.3f", beIPC), met)
			pointsByPolicy[pol] = append(pointsByPolicy[pol], metrics.SLOPoint{
				Policy: pol, BECores: pt.beCores, LCTail: lc.P99, BEIPC: beIPC})
		}
	}
	emit(detail, "slo-pack-detail")

	summary := report.NewTable(
		fmt.Sprintf("SLO battleground: max BE throughput at fixed LC p99 <= %d cycles", sloPackBudget),
		"policy", "best BE cores", "BE IPC @ SLO", "LC p99 there")
	for _, pol := range sloPackPolicies {
		best, ok := metrics.MaxBEAtSLO(pointsByPolicy[pol], sloPackBudget)
		if !ok {
			summary.AddRow(pol, "-", "SLO missed at every density", "-")
			continue
		}
		summary.AddRow(pol, fmt.Sprint(best.BECores),
			fmt.Sprintf("%.3f", best.BEIPC), fmt.Sprint(best.LCTail))
	}
	emit(summary, "slo-pack")
	return nil
}

// energy compares the DRAM energy cost of the scheduling policies on the
// 4-core MEM workloads: policies that preserve row-buffer locality (fewer
// activations) move the same data for less dynamic energy — a dimension the
// paper does not evaluate.
func energy(ctx context.Context, l *lab.Lab) error {
	if err := l.PrimeContext(ctx, workload.MixesFor(4, "MEM"), figure2Policies); err != nil {
		return err
	}
	t := report.NewTable("Energy: dynamic DRAM energy per kilo-instruction (nJ/KI), 4-core MEM workloads",
		append([]string{"workload"}, figure2Policies...)...)
	for _, mix := range workload.MixesFor(4, "MEM") {
		row := []string{mix.Name}
		for _, pol := range figure2Policies {
			out, err := l.RunContext(ctx, mix, pol)
			if err != nil {
				return err
			}
			e := out.Result.Energy
			dynamic := e.TotalNJ - e.BackgroundNJ
			var instr uint64
			for _, c := range out.Result.Cores {
				instr += c.Retired
			}
			row = append(row, fmt.Sprintf("%.1f", dynamic*1000/float64(instr)))
		}
		t.AddRow(row...)
	}
	emit(t, "energy")
	return nil
}
