package stats

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// exactQuantile returns the rank-ceil(q*n) order statistic of vs (the same
// rank convention LatencyHist.Quantile uses), after clamping negatives the
// way Observe does.
func exactQuantile(vs []int64, q float64) int64 {
	s := make([]int64, len(vs))
	for i, v := range vs {
		if v < 0 {
			v = 0
		}
		s[i] = v
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(len(s)) * q)
	if float64(rank) < float64(len(s))*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// bucketWidthAt returns the width of the bucket containing v.
func bucketWidthAt(v int64) int64 {
	lo, hi := latBucketBounds(latBucket(v))
	return hi - lo + 1
}

// latencyStream is a quick.Generator producing random latency streams with a
// mix of scales (quick's default int64 generator is uniform over the full
// range, which never exercises the small exact buckets).
type latencyStream []int64

func (latencyStream) Generate(r *rand.Rand, size int) (out []int64) {
	n := r.Intn(size*20) + 1
	vs := make([]int64, n)
	for i := range vs {
		// Scale spans unit latencies up to ~2^40 cycles.
		scale := uint(r.Intn(40))
		vs[i] = r.Int63n(int64(1)<<scale + 1)
	}
	return vs
}

// TestQuantileWithinOneBucket checks the histogram's quantile contract
// against exact sort-based order statistics: for every stream and every
// reported percentile, the bucketized value is at least the exact quantile
// and exceeds it by less than one bucket width.
func TestQuantileWithinOneBucket(t *testing.T) {
	property := func(stream latencyStream) bool {
		var h LatencyHist
		for _, v := range stream {
			h.Observe(v)
		}
		for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
			got := h.Quantile(q)
			exact := exactQuantile(stream, q)
			if got < exact || got-exact >= bucketWidthAt(exact) {
				t.Logf("q=%v: hist %d, exact %d (bucket width %d), n=%d",
					q, got, exact, bucketWidthAt(exact), len(stream))
				return false
			}
		}
		return true
	}
	// The generator replaces quick's default []int64 via the named type.
	cfg := &quick.Config{MaxCount: 300, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(latencyStream{}.Generate(r, 50))
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEqualsConcatenation checks that merging shard histograms is
// bitwise identical to one histogram of the concatenated stream — the
// guarantee the parallel replay merge builds on.
func TestMergeEqualsConcatenation(t *testing.T) {
	property := func(a, b, c latencyStream) bool {
		var whole LatencyHist
		for _, s := range [][]int64{a, b, c} {
			for _, v := range s {
				whole.Observe(v)
			}
		}
		var merged LatencyHist
		for _, s := range [][]int64{a, b, c} {
			var shard LatencyHist
			for _, v := range s {
				shard.Observe(v)
			}
			merged.Merge(&shard)
		}
		return merged == whole // struct equality: every count, n, sum, max
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(latencyStream{}.Generate(r, 30))
		}
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSubInvertsMerge checks the delta operation telemetry uses: cumulative
// minus an earlier snapshot equals the histogram of the later samples alone
// (counts, n and sum; max stays cumulative by contract).
func TestSubInvertsMerge(t *testing.T) {
	property := func(early, late latencyStream) bool {
		var prev LatencyHist
		for _, v := range early {
			prev.Observe(v)
		}
		cum := prev
		var want LatencyHist
		for _, v := range late {
			cum.Observe(v)
			want.Observe(v)
		}
		delta := cum
		delta.Sub(&prev)
		if delta.n != want.n || delta.sum != want.sum {
			return false
		}
		return delta.counts == want.counts
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(latencyStream{}.Generate(r, 30))
		}
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLatBucketEdges pins the index function at its boundary values: unit
// buckets, octave boundaries, negatives and the int64 extremes all map to
// in-range buckets whose bounds bracket the value.
func TestLatBucketEdges(t *testing.T) {
	values := []int64{0, 1, latSubBuckets - 1, latSubBuckets, latSubBuckets + 1,
		15, 16, 17, 1023, 1024, 1025, 1<<40 - 1, 1 << 40, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	for _, v := range values {
		b := latBucket(v)
		if b < 0 || b >= LatencyBuckets {
			t.Fatalf("latBucket(%d) = %d out of range [0,%d)", v, b, LatencyBuckets)
		}
		lo, hi := latBucketBounds(b)
		if v < lo || v > hi {
			t.Errorf("latBucket(%d) = %d with bounds [%d,%d] not containing it", v, b, lo, hi)
		}
	}
	// Buckets tile the value axis: each bucket starts where the previous
	// ended, starting at zero.
	next := int64(0)
	for i := 0; i < LatencyBuckets; i++ {
		lo, hi := latBucketBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if hi < lo {
			t.Fatalf("bucket %d has inverted bounds [%d,%d]", i, lo, hi)
		}
		next = hi + 1
		if next < 0 { // wrapped past int64 max on the final bucket
			break
		}
	}
}

// TestHistogramQuantileEmpty pins the empty histogram's zero answers.
func TestHistogramQuantileEmpty(t *testing.T) {
	var h LatencyHist
	if h.N() != 0 || h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 ||
		h.Mean() != 0 || h.Max() != 0 || h.CountAtOrBelow(1<<40) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestHistogramNegativeClamped checks that a negative sample is recorded as
// zero: counted, in the zero bucket, adding nothing to the sum.
func TestHistogramNegativeClamped(t *testing.T) {
	var h LatencyHist
	h.Observe(-5)
	if h.N() != 1 || h.Mean() != 0 || h.Max() != 0 || h.CountAtOrBelow(0) != 1 {
		t.Fatalf("negative sample not clamped to 0: %+v", h)
	}
}

// TestHistogramBuckets pins the bucket layout at a few values: unit buckets
// below latSubBuckets report exact quantiles, and above it a sample reports
// the upper bound of its 1/latSubBuckets-octave bucket.
func TestHistogramBuckets(t *testing.T) {
	for _, c := range []struct{ v, want int64 }{
		{0, 0}, {5, 5}, {7, 7}, {8, 8}, {15, 15}, {16, 17}, {100, 103}, {1000, 1023}, {1024, 1151},
	} {
		var h LatencyHist
		h.Observe(c.v)
		if got := h.Quantile(1); got != c.want {
			t.Errorf("sample %d reports %d, want bucket bound %d", c.v, got, c.want)
		}
	}
}

// TestHistogramQuantileBounds pins percentiles of a uniform 0..999 stream to
// their exact order statistics plus at most one bucket width.
func TestHistogramQuantileBounds(t *testing.T) {
	var h LatencyHist
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	for _, c := range []struct {
		q     float64
		exact int64
	}{{0, 0}, {0.001, 0}, {0.5, 499}, {0.99, 989}, {1, 999}} {
		got := h.Quantile(c.q)
		if got < c.exact || got-c.exact >= bucketWidthAt(c.exact) {
			t.Errorf("Quantile(%v) = %d, want within one bucket above %d", c.q, got, c.exact)
		}
	}
}

// TestHistogramQuantileMonotone checks that reported quantiles never
// decrease with q, and that the top quantile is the bucket bound of Max.
func TestHistogramQuantileMonotone(t *testing.T) {
	property := func(stream latencyStream) bool {
		var h LatencyHist
		for _, v := range stream {
			h.Observe(v)
		}
		prev := int64(0)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v < prev {
				t.Logf("q=%v gives %d < %d", q, v, prev)
				return false
			}
			prev = v
		}
		_, hi := latBucketBounds(latBucket(h.Max()))
		return prev == hi
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, r *rand.Rand) {
		args[0] = reflect.ValueOf(latencyStream{}.Generate(r, 30))
	}}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyHistBasics pins mean, max and CountAtOrBelow.
func TestLatencyHistBasics(t *testing.T) {
	var h LatencyHist
	for _, v := range []int64{-5, 0, 3, 7, 100} {
		h.Observe(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if want := float64(0+0+3+7+100) / 5; h.Mean() != want {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d, want 100", h.Max())
	}
	if got := h.CountAtOrBelow(7); got != 4 {
		t.Fatalf("CountAtOrBelow(7) = %d, want 4 (unit buckets are exact)", got)
	}
	if got := h.CountAtOrBelow(-1); got != 0 {
		t.Fatalf("CountAtOrBelow(-1) = %d, want 0", got)
	}
	if got := h.CountAtOrBelow(1 << 50); got != 5 {
		t.Fatalf("CountAtOrBelow(big) = %d, want 5", got)
	}
	h.Reset()
	if h != (LatencyHist{}) {
		t.Fatal("Reset must zero the histogram")
	}
}

func TestLatencyHistJSONRoundTrip(t *testing.T) {
	var h LatencyHist
	for _, v := range []int64{0, 1, 7, 8, 100, 431, 5000, 1 << 40} {
		h.Observe(v)
	}
	blob, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyHist
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip changed the histogram:\n%s", blob)
	}
	// Canonical: equal histograms marshal to equal bytes.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("encoding not canonical:\n%s\n%s", blob, blob2)
	}
	// Empty histograms stay tiny and round-trip too.
	var empty, emptyBack LatencyHist
	blob, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &emptyBack); err != nil {
		t.Fatal(err)
	}
	if emptyBack != empty {
		t.Fatalf("empty round trip changed the histogram: %s", blob)
	}
}

func TestLatencyHistJSONRejectsCorruption(t *testing.T) {
	for name, blob := range map[string]string{
		"bad key":        `{"n":1,"sum":5,"max":5,"counts":{"x":1}}`,
		"key range":      `{"n":1,"sum":5,"max":5,"counts":{"9999":1}}`,
		"count mismatch": `{"n":2,"sum":5,"max":5,"counts":{"5":1}}`,
		"aliased key":    `{"n":2,"counts":{"0":1,"00":1}}`,
		"wrapped total":  `{"n":0,"counts":{"0":18446744073709551615,"1":1}}`,
		"signed key":     `{"n":1,"max":3,"counts":{"+3":1}}`,
		"negative max":   `{"n":1,"max":-7,"counts":{"0":1}}`,
		"both":           `{"n":1,"max":-7,"counts":{"+3":1}}`,
	} {
		var h LatencyHist
		if err := json.Unmarshal([]byte(blob), &h); err == nil {
			t.Errorf("%s: corrupted payload unmarshalled cleanly", name)
		}
	}
}

// FuzzLatencyHistJSON feeds arbitrary bytes to UnmarshalJSON: it must never
// panic, any payload it accepts must be self-consistent (n equals the bucket
// population), and an accepted histogram must survive a marshal round trip
// unchanged.
func FuzzLatencyHistJSON(f *testing.F) {
	var h LatencyHist
	for _, v := range []int64{0, 3, 100, 5000, 1 << 40} {
		h.Observe(v)
	}
	blob, err := json.Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, seed := range []string{
		`{}`, `{"n":0}`, `{"n":1,"sum":5,"max":5,"counts":{"5":1}}`,
		`{"n":2,"counts":{"0":1,"00":1}}`,
		`{"n":0,"counts":{"0":18446744073709551615,"1":1}}`,
		`{"n":1,"max":-7,"counts":{"+3":1}}`,
		`{"n":1,"counts":{"0":5,"0":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h LatencyHist
		if err := json.Unmarshal(data, &h); err != nil {
			return
		}
		var total uint64
		for _, c := range h.counts {
			if total+c < total {
				t.Fatalf("accepted bucket counts that wrap: %s", data)
			}
			total += c
		}
		if total != h.n {
			t.Fatalf("accepted n=%d but buckets hold %d: %s", h.n, total, data)
		}
		if h.max < 0 {
			t.Fatalf("accepted negative max %d: %s", h.max, data)
		}
		blob, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var back LatencyHist
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-marshalled histogram rejected: %v\n%s", err, blob)
		}
		if back != h {
			t.Fatalf("round trip changed the histogram:\n%s\n%s", data, blob)
		}
	})
}
