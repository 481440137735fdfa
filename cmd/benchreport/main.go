// Command benchreport runs the repository's benchmark suite and maintains
// machine-readable performance snapshots, so controller-path optimizations
// are measured instead of asserted and regressions fail loudly.
//
// Each run executes `go test -bench` with -benchmem, parses the standard
// benchmark output, and writes results/BENCH_<date>.json recording ns/op,
// B/op, allocs/op, and any custom metrics per benchmark. The new numbers are
// compared against the most recent earlier snapshot (or an explicit
// -baseline); a benchmark whose ns/op or allocs/op grew by more than
// -tolerance counts as a regression, and so does a baseline benchmark that
// -bench selects but the run did not produce (reported as MISSING), so a
// deleted or renamed gated benchmark cannot pass silently. Custom metrics
// (speedups, jobs/sec) are shown as old -> new deltas under each benchmark's
// row but are never gated — their meaning and direction-of-good vary per
// benchmark. When the baseline was taken at a different GOMAXPROCS or CPU
// count than the current run, the comparison opens with a warning: its
// wall-clock deltas then compare hosts as well as code.
//
// Usage:
//
//	benchreport                          # run, snapshot, compare vs previous
//	benchreport -check                   # compare only, exit 1 on regression
//	benchreport -bench Fig2 -count 3     # restrict and repeat (min is kept)
//	benchreport -baseline results/BENCH_2026-08-06.json -tolerance 0.1
//
// Snapshots are written to -dir (default results/) and are meant to be
// committed: the checked-in snapshot is the baseline the next change is
// judged against. Wall-clock tolerances must absorb machine and load
// variance; allocs/op is deterministic and uses the same threshold only for
// slack on rounding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var (
	benchFlag     = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	pkgsFlag      = flag.String("pkgs", ".", "comma-separated packages to benchmark")
	benchtimeFlag = flag.String("benchtime", "1x", "go test -benchtime value")
	countFlag     = flag.Int("count", 1, "go test -count; the minimum ns/op across repeats is recorded")
	dirFlag       = flag.String("dir", "results", "directory snapshots are written to and discovered in")
	baselineFlag  = flag.String("baseline", "", "snapshot to compare against (default: newest BENCH_*.json in -dir)")
	tolFlag       = flag.Float64("tolerance", 0.20, "allowed fractional growth in ns/op and allocs/op before failing")
	allocTolFlag  = flag.Float64("alloctolerance", -1, "allowed fractional growth in allocs/op (-1 = use -tolerance); allocs are deterministic, so tight bounds like 0.01 make zero-perturbation guards real")
	checkFlag     = flag.Bool("check", false, "compare against the baseline without writing a new snapshot; exit 1 on regression")
	verboseFlag   = flag.Bool("v", false, "echo the raw go test output")
)

// Measurement is one benchmark's recorded numbers.
type Measurement struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the on-disk BENCH_<date>.json document. GOMAXPROCS and NumCPU
// record the host parallelism the numbers were taken under; wall-clock
// figures are only comparable between snapshots taken at the same widths.
// Pkgs is the -pkgs list the benchmarks came from ("" means "."), so a
// comparison only reports baseline benchmarks as missing when both runs
// covered the same packages.
type Snapshot struct {
	Date       string                 `json:"date"`
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	GOMAXPROCS int                    `json:"gomaxprocs,omitempty"`
	NumCPU     int                    `json:"num_cpu,omitempty"`
	Pkgs       string                 `json:"pkgs,omitempty"`
	Benchtime  string                 `json:"benchtime"`
	Count      int                    `json:"count"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run() error {
	cur, err := runBenchmarks()
	if err != nil {
		return err
	}
	if len(cur.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched %q in %s", *benchFlag, *pkgsFlag)
	}

	basePath := *baselineFlag
	if basePath == "" {
		basePath = newestSnapshot(*dirFlag)
	}
	regressions := 0
	if basePath != "" {
		base, err := readSnapshot(basePath)
		if err != nil {
			return err
		}
		selected, err := benchSelector(*benchFlag)
		if err != nil {
			return err
		}
		regressions = compare(os.Stdout, base, cur, basePath, selected)
	} else {
		fmt.Printf("no baseline snapshot in %s; nothing to compare against\n", *dirFlag)
	}

	if !*checkFlag {
		out := filepath.Join(*dirFlag, "BENCH_"+cur.Date+".json")
		if err := writeSnapshot(out, cur); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(cur.Benchmarks))
	}
	if regressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond tolerance %.0f%% or went missing", regressions, *tolFlag*100)
	}
	return nil
}

// runBenchmarks shells out to go test and parses its output.
func runBenchmarks() (*Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", *benchFlag, "-benchmem",
		"-benchtime", *benchtimeFlag, "-count", strconv.Itoa(*countFlag)}
	args = append(args, strings.Split(*pkgsFlag, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if *verboseFlag {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	snap := &Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Pkgs:       *pkgsFlag,
		Benchtime:  *benchtimeFlag,
		Count:      *countFlag,
		Benchmarks: map[string]Measurement{},
	}
	for _, line := range strings.Split(string(out), "\n") {
		name, m, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if prev, seen := snap.Benchmarks[name]; seen {
			// Repeats (-count > 1): keep the least-noise observation per axis.
			m = minMeasurement(prev, m)
		}
		snap.Benchmarks[name] = m
	}
	return snap, nil
}

// gomaxprocsSuffix strips the trailing -<N> go test appends to benchmark
// names, so snapshots compare across machines with different core counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one "BenchmarkX-8  N  v unit  v unit ..." line.
func parseBenchLine(line string) (string, Measurement, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Measurement{}, false
	}
	name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
	m := Measurement{}
	// f[1] is the iteration count; the rest are value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Measurement{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			m.NsPerOp = v
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		default:
			if m.Metrics == nil {
				m.Metrics = map[string]float64{}
			}
			m.Metrics[unit] = v
		}
	}
	return name, m, m.NsPerOp > 0
}

func minMeasurement(a, b Measurement) Measurement {
	out := a
	// Custom metrics (speedups, jobs/sec, skip ratios) are not noise floors to
	// minimize — they belong to a particular run. Keep the set from the repeat
	// with the lower wall clock, the least-perturbed observation.
	if b.NsPerOp < a.NsPerOp {
		out.Metrics = b.Metrics
	}
	if b.NsPerOp < out.NsPerOp {
		out.NsPerOp = b.NsPerOp
	}
	if b.BytesPerOp < out.BytesPerOp {
		out.BytesPerOp = b.BytesPerOp
	}
	if b.AllocsPerOp < out.AllocsPerOp {
		out.AllocsPerOp = b.AllocsPerOp
	}
	return out
}

// newestSnapshot returns the lexically greatest BENCH_*.json in dir (the date
// format sorts chronologically), or "" when none exists.
func newestSnapshot(dir string) string {
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	sort.Strings(matches)
	if len(matches) == 0 {
		return ""
	}
	return matches[len(matches)-1]
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchSelector returns a predicate reporting whether go test -bench pattern
// selects a benchmark, by its reported name, for a result line. It follows
// the testing package: the pattern splits into alternatives on top-level '|'
// and each alternative into per-level elements on '/' (outside brackets and
// parentheses); a name is selected when some alternative's every element
// matches the name's element at the same depth. A name with fewer levels
// than the alternative only partially matches — go test then runs it as a
// parent and prints no result line for it — so it is not selected.
func benchSelector(pattern string) (func(name string) bool, error) {
	var alts [][]*regexp.Regexp
	for _, alt := range splitBenchPattern(pattern) {
		var elems []*regexp.Regexp
		for _, e := range alt {
			re, err := regexp.Compile(e)
			if err != nil {
				return nil, fmt.Errorf("-bench %q: %w", pattern, err)
			}
			elems = append(elems, re)
		}
		alts = append(alts, elems)
	}
	return func(name string) bool {
		levels := strings.Split(name, "/")
		for _, elems := range alts {
			if len(levels) < len(elems) {
				continue
			}
			ok := true
			for i, re := range elems {
				if !re.MatchString(levels[i]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}, nil
}

// splitBenchPattern splits a -bench pattern into alternatives of per-level
// elements, with the testing package's bracket, parenthesis and escape rules.
func splitBenchPattern(s string) [][]string {
	var alts [][]string
	var elems []string
	brackets, parens := 0, 0
	for i := 0; i < len(s); {
		switch s[i] {
		case '[':
			brackets++
		case ']':
			if brackets--; brackets < 0 {
				brackets = 0
			}
		case '(':
			if brackets == 0 {
				parens++
			}
		case ')':
			if brackets == 0 {
				parens--
			}
		case '\\':
			i++
		case '/', '|':
			if brackets == 0 && parens == 0 {
				elems = append(elems, s[:i])
				if s[i] == '|' {
					alts = append(alts, elems)
					elems = nil
				}
				s, i = s[i+1:], 0
				continue
			}
		}
		i++
	}
	return append(alts, append(elems, s))
}

// hostString describes the host parallelism a snapshot was taken under.
func hostString(s *Snapshot) string {
	if s.GOMAXPROCS == 0 && s.NumCPU == 0 {
		return "gomaxprocs/num_cpu unrecorded"
	}
	return fmt.Sprintf("gomaxprocs=%d num_cpu=%d", s.GOMAXPROCS, s.NumCPU)
}

// pkgsOf returns the package list a snapshot's benchmarks came from.
func pkgsOf(s *Snapshot) string {
	if s.Pkgs == "" {
		return "."
	}
	return s.Pkgs
}

// compare writes a per-benchmark delta table to w and returns how many
// benchmarks regressed beyond the tolerance or went missing. selected reports
// whether the -bench pattern of the current run selects a benchmark name.
func compare(w io.Writer, base, cur *Snapshot, basePath string, selected func(string) bool) int {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "comparing against %s (tolerance %.0f%%)\n", basePath, *tolFlag*100)
	if base.GOMAXPROCS != cur.GOMAXPROCS || base.NumCPU != cur.NumCPU {
		fmt.Fprintf(w, "WARNING: host mismatch: baseline %s, this run %s; wall-clock deltas compare hosts as well as code\n",
			hostString(base), hostString(cur))
	}
	regressions := 0
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		timeRatio := c.NsPerOp / b.NsPerOp
		status := "ok"
		switch {
		case timeRatio > 1+*tolFlag:
			status = "REGRESSION"
			regressions++
		case timeRatio < 1/(1+*tolFlag):
			status = "improved"
		}
		// Allocation counts are deterministic; growth beyond slack is a
		// regression even when wall clock is inside tolerance. -alloctolerance
		// tightens this independently of the wall-clock tolerance (the +1
		// absolute slack covers go test's rounding of large counts).
		allocTol := *allocTolFlag
		if allocTol < 0 {
			allocTol = *tolFlag
		}
		if c.AllocsPerOp > b.AllocsPerOp*(1+allocTol)+1 {
			if status != "REGRESSION" {
				regressions++
			}
			status = "REGRESSION(allocs)"
		}
		fmt.Fprintf(w, "  %-36s %12.0f -> %12.0f ns/op (%+.1f%%)  %8.0f -> %8.0f allocs/op  %s\n",
			name, b.NsPerOp, c.NsPerOp, (timeRatio-1)*100, b.AllocsPerOp, c.AllocsPerOp, status)
		// Custom metrics travel informationally: they are the scientific
		// payload (speedups, jobs/sec), not regression-gated axes — their
		// meaning and direction-of-good vary per benchmark.
		units := make([]string, 0, len(c.Metrics))
		for unit := range c.Metrics {
			if _, ok := b.Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, nv := b.Metrics[unit], c.Metrics[unit]
			line := fmt.Sprintf("    %-34s %12.4g -> %12.4g %s", "", ov, nv, unit)
			if ov != 0 {
				line += fmt.Sprintf(" (%+.1f%%)", (nv/ov-1)*100)
			}
			fmt.Fprintln(w, line)
		}
	}
	// A baseline benchmark this run should have produced but did not — it was
	// deleted, renamed or failed to report — must not pass by omission.
	var missing []string
	if pkgsOf(base) == pkgsOf(cur) {
		for name := range base.Benchmarks {
			if _, ok := cur.Benchmarks[name]; !ok && selected(name) {
				missing = append(missing, name)
			}
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "  %-36s MISSING (in the baseline and selected by -bench, but not produced)\n", name)
	}
	regressions += len(missing)
	var added []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "  %-36s new benchmark (no baseline)\n", name)
	}
	return regressions
}
