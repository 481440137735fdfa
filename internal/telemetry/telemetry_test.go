package telemetry_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/telemetry"
	"memsched/internal/workload"
)

// runWith runs a fixed-seed simulation with a telemetry collector attached
// and returns the snapshot alongside the Result.
func runWith(t *testing.T, mixName, policy string, instr uint64, opts telemetry.Options, noSkip bool) (*telemetry.Snapshot, sim.Result) {
	t.Helper()
	mix, err := workload.MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	var snap *telemetry.Snapshot
	prev := opts.Sink
	opts.Sink = func(s *telemetry.Snapshot) {
		snap = s
		if prev != nil {
			prev(s)
		}
	}
	res, err := sim.Run(context.Background(), sim.RunSpec{
		Mix: mix, Policy: policy, Instr: instr, Seed: sim.EvalSeed,
		NoCycleSkip: noSkip, Telemetry: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("telemetry sink never fired")
	}
	return snap, res
}

// TestCollectorSeries checks the structural invariants of a sampled run:
// epoch windows tile the measurement exactly, deltas reconcile against the
// Result, and the command timeline is time-ordered.
func TestCollectorSeries(t *testing.T) {
	const instr, epoch = 4_000, 1_000
	snap, res := runWith(t, "4MEM-1", "me-lreq", instr,
		telemetry.Options{Epoch: epoch, Commands: true}, false)

	if snap.EpochLen != epoch || snap.Cores != 4 {
		t.Fatalf("snapshot geometry: epoch %d cores %d", snap.EpochLen, snap.Cores)
	}
	if snap.TotalCycles != res.TotalCycles {
		t.Errorf("TotalCycles %d != Result %d", snap.TotalCycles, res.TotalCycles)
	}
	if len(snap.Epochs) == 0 {
		t.Fatal("no epochs sampled")
	}
	var cycles int64
	for i, ep := range snap.Epochs {
		if ep.Index != i {
			t.Errorf("epoch %d has index %d", i, ep.Index)
		}
		if ep.Cycles <= 0 || ep.Cycles > epoch {
			t.Errorf("epoch %d spans %d cycles", i, ep.Cycles)
		}
		if i < len(snap.Epochs)-1 && ep.Cycles != epoch {
			t.Errorf("non-final epoch %d spans %d cycles, want %d", i, ep.Cycles, epoch)
		}
		cycles += ep.Cycles
		if ep.EndCycle != cycles {
			t.Errorf("epoch %d ends at %d, want %d", i, ep.EndCycle, cycles)
		}
		if len(ep.Cores) != snap.Cores || len(ep.Channels) != snap.Channels {
			t.Fatalf("epoch %d: %d cores, %d channels", i, len(ep.Cores), len(ep.Channels))
		}
	}
	if cycles != snap.TotalCycles {
		t.Errorf("epochs tile %d cycles, want %d", cycles, snap.TotalCycles)
	}
	// Every core keeps running until the last one commits, so its summed
	// retired deltas are at least its slice.
	for core := 0; core < snap.Cores; core++ {
		var retired uint64
		for _, ep := range snap.Epochs {
			retired += ep.Cores[core].Retired
		}
		if retired < instr {
			t.Errorf("core %d: %d retired sampled, want >= %d", core, retired, instr)
		}
	}
	if len(snap.Commands) == 0 {
		t.Error("command timeline empty with Commands enabled")
	}
	for i := 1; i < len(snap.Commands); i++ {
		if snap.Commands[i].Start < snap.Commands[i-1].Start {
			t.Fatalf("command %d starts at %d, before predecessor at %d",
				i, snap.Commands[i].Start, snap.Commands[i-1].Start)
		}
	}
	for i, p := range snap.DrainPhases {
		if p.End <= p.Start {
			t.Errorf("drain phase %d: [%d, %d)", i, p.Start, p.End)
		}
		if i > 0 && p.Start < snap.DrainPhases[i-1].End {
			t.Errorf("drain phase %d overlaps predecessor", i)
		}
	}
}

// TestZeroPerturbation proves telemetry is read-only: enabling it must not
// change the Result (beyond the exempt SkippedCycles — epoch clamping only
// shortens skips, never changes the simulated machine).
func TestZeroPerturbation(t *testing.T) {
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{Mix: mix, Policy: "me-lreq", Instr: 4_000, Seed: sim.EvalSeed}
	plain, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Telemetry = &telemetry.Options{Epoch: 700, Commands: true}
	observed, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sim.DiffResults(observed, plain, 0) {
		t.Error(d)
	}
	// Classes arm: serving-class tagging plus per-epoch class latency sampling
	// together must still reproduce the plain run (class tags are labels, and
	// sampling only reads the controller's cumulative histograms).
	spec.Classes = []workload.ServiceClass{workload.LC, workload.BE, workload.BE, workload.BE}
	classed, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the label-carrying fields before diffing against the plain run.
	for i := range classed.Cores {
		classed.Cores[i].Service = workload.BE
	}
	classed.ClassLat = [2]sim.ClassLatency{}
	plain.ClassLat = [2]sim.ClassLatency{}
	for _, d := range sim.DiffResults(classed, plain, 0) {
		t.Errorf("classed+telemetry vs plain: %s", d)
	}
}

// TestClassLatEpochs checks the per-epoch class latency samples: deltas are
// epoch-local (not cumulative), cover at least the run's frozen per-class read
// counts (cores keep completing reads past their commit targets, so epochs may
// observe more than the frozen Result), keep their percentiles ordered, and
// the BE slot stays empty when no core is tagged best-effort.
func TestClassLatEpochs(t *testing.T) {
	mix, err := workload.MixByName("4MEM-1")
	if err != nil {
		t.Fatal(err)
	}
	classes := []workload.ServiceClass{workload.LC, workload.LC, workload.LC, workload.LC}
	res, snap := runClassedWith(t, mix, classes, telemetry.Options{Epoch: 600})
	if len(snap.Epochs) < 2 {
		t.Fatalf("only %d epochs sampled; delta property is vacuous", len(snap.Epochs))
	}
	var lcReads, beReads uint64
	for i, ep := range snap.Epochs {
		lc := ep.ClassLat[workload.LC]
		lcReads += lc.Reads
		beReads += ep.ClassLat[workload.BE].Reads
		if ep.ClassLat[workload.BE].Reads != 0 {
			t.Errorf("epoch %d: BE sample has %d reads with no BE cores", i, ep.ClassLat[workload.BE].Reads)
		}
		if lc.Reads > 0 && !(lc.P50 <= lc.P95 && lc.P95 <= lc.P99 && lc.P99 <= lc.P999) {
			t.Errorf("epoch %d: LC percentiles unordered: p50=%d p95=%d p99=%d p99.9=%d",
				i, lc.P50, lc.P95, lc.P99, lc.P999)
		}
	}
	// Each epoch is a delta, so the sum over epochs is the cumulative stream;
	// it must cover the frozen measurement window (equality only when no core
	// runs past its commit target, which memory-bound mixes never satisfy).
	if want := res.ClassLat[workload.LC].Reads; lcReads < want {
		t.Errorf("epoch LC read deltas sum to %d, below frozen run total %d", lcReads, want)
	}
	if beReads != 0 {
		t.Errorf("epoch BE read deltas sum to %d, want 0", beReads)
	}
}

func runClassedWith(t *testing.T, mix workload.Mix, classes []workload.ServiceClass, opts telemetry.Options) (sim.Result, *telemetry.Snapshot) {
	t.Helper()
	var snap *telemetry.Snapshot
	opts.Sink = func(s *telemetry.Snapshot) { snap = s }
	res, err := sim.Run(context.Background(), sim.RunSpec{
		Mix: mix, Policy: "me-lreq", Instr: 4_000, Seed: sim.EvalSeed,
		Classes: classes, Telemetry: &opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("telemetry sink never fired")
	}
	return res, snap
}

// TestExportThroughRunSpec checks the sim.Run export path: Dir set on the
// options produces the full file set.
func TestExportThroughRunSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "telem")
	runWith(t, "2MEM-1", "hf-rf", 2_000,
		telemetry.Options{Epoch: 500, Commands: true, Dir: dir}, false)
	for _, name := range []string{"cores.csv", "channels.csv", "controller.csv", "telemetry.json", "trace.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("export missing %s: %v", name, err)
			continue
		}
		if len(blob) == 0 {
			t.Errorf("export %s is empty", name)
		}
	}
}

// TestMaxCommandsBounds checks timeline overflow accounting.
func TestMaxCommandsBounds(t *testing.T) {
	snap, _ := runWith(t, "4MEM-1", "fcfs", 3_000,
		telemetry.Options{Epoch: 1_000, Commands: true, MaxCommands: 10}, false)
	if len(snap.Commands) != 10 {
		t.Errorf("stored %d commands, want capped at 10", len(snap.Commands))
	}
	if snap.CommandsDropped == 0 {
		t.Error("no dropped commands counted past the cap")
	}
}

// TestDiffSnapshots checks the comparator both ways.
func TestDiffSnapshots(t *testing.T) {
	snap, _ := runWith(t, "2MEM-1", "fcfs", 1_500, telemetry.Options{Epoch: 400}, false)
	if diffs := telemetry.DiffSnapshots(snap, snap, 0); len(diffs) != 0 {
		t.Fatalf("self-compare diverged: %v", diffs)
	}
	other := *snap
	other.Epochs = append([]telemetry.Epoch(nil), snap.Epochs...)
	other.Epochs[0].Ctrl.ReadQueueLen++
	if diffs := telemetry.DiffSnapshots(snap, &other, 0); len(diffs) == 0 {
		t.Error("comparator missed an integer divergence")
	}
}
