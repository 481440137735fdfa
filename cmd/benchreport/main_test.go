package main

import (
	"bytes"
	"strings"
	"testing"
)

func snapshot(procs, cpus int, names ...string) *Snapshot {
	s := &Snapshot{GOMAXPROCS: procs, NumCPU: cpus, Benchmarks: map[string]Measurement{}}
	for _, n := range names {
		s.Benchmarks[n] = Measurement{NsPerOp: 100, AllocsPerOp: 10}
	}
	return s
}

func mustSelector(t *testing.T, pattern string) func(string) bool {
	t.Helper()
	sel, err := benchSelector(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestBenchSelector(t *testing.T) {
	sel := mustSelector(t, "SimulatorThroughput|Fig2EightCore$|SweepdThroughput")
	for name, want := range map[string]bool{
		"BenchmarkSimulatorThroughput":       true,
		"BenchmarkFig2EightCore":             true,
		"BenchmarkFig2EightCoreExtra":        false, // $ anchors the first level
		"BenchmarkSweepdThroughput/batched":  true,  // sub-benchmarks follow their parent
		"BenchmarkParallelScaling/serial-8c": false,
		"BenchmarkFig3MemoryBound":           false,
	} {
		if got := sel(name); got != want {
			t.Errorf("%q selected = %v, want %v", name, got, want)
		}
	}

	// Per-level elements: the second element filters sub-benchmarks, and a
	// leaf with fewer levels than the pattern prints no result line.
	sel = mustSelector(t, "Sweepd/single|Fig2")
	for name, want := range map[string]bool{
		"BenchmarkSweepdThroughput/single":  true,
		"BenchmarkSweepdThroughput/batched": false,
		"BenchmarkSweepdThroughput":         false,
		"BenchmarkFig2EightCore":            true,
	} {
		if got := sel(name); got != want {
			t.Errorf("%q selected = %v, want %v", name, got, want)
		}
	}

	// Separators inside brackets and parentheses do not split.
	sel = mustSelector(t, "(A|B)Core")
	if !sel("BenchmarkBCore") || sel("BenchmarkC") {
		t.Error("parenthesised alternation split at top level")
	}

	if _, err := benchSelector("("); err == nil {
		t.Error("invalid pattern accepted")
	}
}

func TestCompareReportsMissing(t *testing.T) {
	base := snapshot(1, 1, "BenchmarkAlpha", "BenchmarkBeta/x", "BenchmarkGamma")
	cur := snapshot(1, 1, "BenchmarkAlpha")
	var out bytes.Buffer
	got := compare(&out, base, cur, "base.json", mustSelector(t, "Alpha|Beta"))
	if got != 1 {
		t.Errorf("compare returned %d failures, want 1 (BenchmarkBeta/x missing)\n%s", got, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "BenchmarkBeta/x") || !strings.Contains(text, "MISSING") {
		t.Errorf("output does not report BenchmarkBeta/x as MISSING:\n%s", text)
	}
	// BenchmarkGamma is outside the -bench selection: absent by request.
	if strings.Contains(text, "BenchmarkGamma") {
		t.Errorf("unselected baseline benchmark reported:\n%s", text)
	}

	// Snapshots over different package lists cannot be held to each other's
	// benchmark sets.
	cur.Pkgs = "./internal/cache"
	out.Reset()
	if got := compare(&out, base, cur, "base.json", mustSelector(t, ".")); got != 0 {
		t.Errorf("different -pkgs: %d failures, want 0\n%s", got, out.String())
	}
}

func TestCompareWarnsOnHostMismatch(t *testing.T) {
	base := snapshot(1, 1, "BenchmarkA")
	var out bytes.Buffer
	if got := compare(&out, base, snapshot(2, 2, "BenchmarkA"), "base.json", mustSelector(t, ".")); got != 0 {
		t.Errorf("host mismatch alone counted %d failures", got)
	}
	text := out.String()
	if !strings.Contains(text, "WARNING: host mismatch") ||
		!strings.Contains(text, "gomaxprocs=1 num_cpu=1") ||
		!strings.Contains(text, "gomaxprocs=2 num_cpu=2") {
		t.Errorf("no warning naming both hosts:\n%s", text)
	}

	out.Reset()
	compare(&out, base, snapshot(1, 1, "BenchmarkA"), "base.json", mustSelector(t, "."))
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("matching hosts warned:\n%s", out.String())
	}
}
