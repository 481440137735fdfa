package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"memsched"
	"memsched/internal/memctrl"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

// The traced run measures layers from outside the program only: transparent
// wrappers around the two interfaces package sim calls through
// (memctrl.Policy and trace.Generator), a CPU profile folded by package, and
// the counters a Result carries. The wrappers must not change what the
// machine does, so every traced Result is diffed against the untraced one
// with zero tolerance.

// policyTap forwards to a built-in policy and counts picks and the
// candidates offered. It implements memctrl.IndexedPolicy so the controller
// keeps its indexed fast path.
//
// The taps count and do not time: one clock read costs 200-300 ns on the
// 2-CPU host the baseline was taken on, an order of magnitude more than a
// Next or a Pick, so per-call cost comes from the layer's profile time
// divided by these counts instead.
type policyTap struct {
	inner        memctrl.IndexedPolicy
	picks, cands int64
}

func (p *policyTap) Name() string { return p.inner.Name() }

func (p *policyTap) Pick(cands []memctrl.Candidate, ctx *memctrl.Context) int {
	view := memctrl.ViewOf(cands)
	return p.PickIndexed(&view, ctx)
}

func (p *policyTap) PickIndexed(view *memctrl.CandidateView, ctx *memctrl.Context) int {
	p.picks++
	p.cands += int64(view.Len())
	return p.inner.PickIndexed(view, ctx)
}

// genTap forwards to a synthetic instruction stream and counts instructions.
// Each core owns its tap; parallel windows tick a core on one worker at a
// time behind a barrier, so the counter needs no atomics.
type genTap struct {
	inner trace.Generator
	calls int64
}

func (g *genTap) Next(ins *trace.Instr) {
	g.calls++
	g.inner.Next(ins)
}

// taps are one run's wrappers.
type taps struct {
	policy *policyTap
	gens   []*genTap
}

// withTaps returns opts with the policy and every core's generator wrapped.
// The generators are the ones sim.New would build itself: trace.NewSynthetic
// over the core's region with the seed derived from (run seed, app code).
func withTaps(opts memsched.Options) (memsched.Options, *taps, error) {
	pol, err := memsched.NewPolicy(opts.Policy, len(opts.Apps))
	if err != nil {
		return opts, nil, err
	}
	indexed, ok := pol.(memctrl.IndexedPolicy)
	if !ok {
		return opts, nil, fmt.Errorf("policy %s has no indexed fast path to forward", opts.Policy)
	}
	t := &taps{policy: &policyTap{inner: indexed}}
	opts.CustomPolicy = t.policy
	opts.Generators = make([]trace.Generator, len(opts.Apps))
	for i, a := range opts.Apps {
		gen, err := trace.NewSynthetic(a.Params, workload.BaseFor(i),
			opts.Seed^(uint64(a.Code)*0x9E3779B97F4A7C15))
		if err != nil {
			return opts, nil, fmt.Errorf("core %d (%s): %w", i, a.Name, err)
		}
		g := &genTap{inner: gen}
		t.gens = append(t.gens, g)
		opts.Generators[i] = g
	}
	return opts, t, nil
}

// tapTotals accumulates taps over a phase.
type tapTotals struct {
	runs, picks, cands, instrs int64
}

func (tt *tapTotals) add(t *taps) {
	tt.runs++
	tt.picks += t.policy.picks
	tt.cands += t.policy.cands
	for _, g := range t.gens {
		tt.instrs += g.calls
	}
}

// metrics fills the sched.* and trace.* per-layer metrics from the counts
// and the phase's profile: per-call cost is the layer's CPU time over its
// call count.
func (tt *tapTotals) metrics(m map[string]float64, prof *layerProfile) {
	if tt.runs == 0 {
		return
	}
	m["sched.picks"] = float64(tt.picks) / float64(tt.runs)
	m["trace.instrs"] = float64(tt.instrs) / float64(tt.runs)
	if tt.picks > 0 {
		m["sched.cands_per_pick"] = float64(tt.cands) / float64(tt.picks)
		m["sched.pick_ns"] = float64(prof.flat["sched"].Nanoseconds()) / float64(tt.picks)
	}
	if tt.instrs > 0 {
		m["trace.next_ns"] = float64(prof.flat["trace"].Nanoseconds()) / float64(tt.instrs)
	}
}

// cpuProfile records a CPU profile of the traced phase to a file under dir.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(dir, name string) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and folds it by layer with `go tool pprof -top`.
func (p *cpuProfile) stop(ctx context.Context) (*layerProfile, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// layerProfile is a CPU profile folded by layer.
type layerProfile struct {
	total time.Duration
	flat  map[string]time.Duration // self time per layer
}

// selfPct fills each layer's <layer>.self_pct metric.
func (lp *layerProfile) selfPct(m map[string]float64) {
	for _, l := range layers {
		m[l+".self_pct"] = 100 * float64(lp.flat[l]) / float64(lp.total)
	}
}

// foldTop parses `go tool pprof -top` text and sums each function's flat
// time into its layer.
func foldTop(text string) (*layerProfile, error) {
	var total time.Duration
	flat := map[string]time.Duration{}
	inRows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 4.98s, 100% of 4.98s total"
			i := strings.Index(line, " of ")
			if i < 0 || !strings.HasSuffix(line, " total") {
				return nil, fmt.Errorf("pprof: unrecognized summary %q", line)
			}
			d, err := parseProfDuration(strings.TrimSuffix(line[i+4:], " total"))
			if err != nil {
				return nil, err
			}
			total = d
		case len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%":
			inRows = true
		case inRows && len(fields) >= 6:
			d, err := parseProfDuration(fields[0])
			if err != nil {
				return nil, err
			}
			flat[layerOf(packageOf(strings.Join(fields[5:], " ")))] += d
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inRows || total <= 0 {
		return nil, fmt.Errorf("pprof: no samples in profile output")
	}
	return &layerProfile{total: total, flat: flat}, nil
}

// parseProfDuration parses pprof's duration cells ("0", "10ms", "1.20s",
// "1.50mins", "2hrs").
func parseProfDuration(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof: duration %q: %w", s, err)
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("pprof: duration %q: %w", s, err)
	}
	return d, nil
}

// packageOf returns the import path of a pprof function name such as
// "memsched/internal/cache.(*Cache).Access" or "runtime.mallocgc".
func packageOf(fn string) string {
	head := strings.TrimSuffix(fn, " (inline)")
	// Receivers and type arguments can hold dots and slashes of their own.
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	start := strings.LastIndex(head, "/") + 1
	if k := strings.Index(head[start:], "."); k >= 0 {
		return head[:start+k]
	}
	// Only the runtime's assembly routines (aeshashbody, memeqbody, ...)
	// carry no package qualifier.
	return "runtime"
}

// layerOf maps an import path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "memsched/internal/"); ok {
		for _, l := range layers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "main" || pkg == "runtime/pprof":
		return "bench"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "internal/runtime/syscall":
		// Socket I/O down to the system call.
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json" || pkg == "reflect":
		// encoding/json with the reflection it drives.
		return "json"
	}
	return "other"
}
