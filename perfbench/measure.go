package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, or 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailSamples is how many samples must lie beyond a reported tail value.
const tailSamples = 10

// tail returns the value with exactly tailSamples samples above it — the
// highest percentile the sample supports — together with that percentile.
// With too few samples it returns the maximum and percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if len(s) <= tailSamples {
		return s[len(s)-1], 100
	}
	i := len(s) - tailSamples - 1
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// blockTail cuts xs, in the order they were measured, into consecutive
// blocks of size samples (a trailing partial block is dropped), takes each
// block's tail and returns the median of those tails, the blocks' percentile
// and the block count. A burst of host contention then moves a few blocks'
// tails, not the reported value. With fewer than size samples it returns
// tail(xs) as one block.
func blockTail(xs []float64, size int) (value, pct float64, blocks int) {
	if len(xs) < size {
		value, pct = tail(xs)
		return value, pct, 1
	}
	var tails []float64
	for i := 0; i+size <= len(xs); i += size {
		var v float64
		v, pct = tail(xs[i : i+size])
		tails = append(tails, v)
	}
	return median(tails), pct, len(tails)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeCounters reads cumulative heap allocation and GC counts without
// stopping the world (runtime.ReadMemStats would), so it can bracket every
// op.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

// counterSamples is reused so that reading the counters allocates nothing;
// only the benchmark's driving goroutine calls readCounters.
var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters() runtimeCounters {
	metrics.Read(counterSamples)
	return runtimeCounters{allocBytes: counterSamples[0].Value.Uint64(),
		gcCycles: counterSamples[1].Value.Uint64()}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTicks reads the host's aggregate CPU line from /proc/stat: steal ticks
// (time the hypervisor ran something else) and all ticks. A run with a large
// steal share measured a contended host.
func cpuTicks() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("empty /proc/stat")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", sc.Text())
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// medianOf runs f reps times and returns the median duration in seconds.
// Every rep's error aborts the run.
func medianOf(reps int, f func() error) (float64, error) {
	var ds []time.Duration
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t))
	}
	return median(seconds(ds)), nil
}
