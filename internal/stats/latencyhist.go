package stats

import (
	"math"
	"math/bits"
)

// LatencyHist is a deterministic fixed-bucket latency histogram with
// log-spaced (log-linear) boundaries: values below latSubBuckets get exact
// unit-width buckets, and every octave [2^k, 2^(k+1)) above that is split
// into latSubBuckets equal sub-buckets, so the bucket width never exceeds
// 1/latSubBuckets of the value (12.5% relative). All state is integer —
// counts, a sum for the mean, and a max — which makes two histograms of the
// same sample multiset bitwise equal regardless of observation order: the
// property the run-mode differential tests (naive vs cycle-skip) and the
// per-class merge rely on. There is no streaming
// sketch and no floating-point accumulation anywhere on the observe path.
//
// The bucket array is part of the struct (no pointer, no allocation), so
// embedding a LatencyHist in per-core statistics keeps the read-completion
// hot path allocation-free, and struct equality (==) is a complete
// byte-level comparison.
type LatencyHist struct {
	n   uint64
	sum uint64
	max int64
	// counts[latBucket(v)] is the number of observed samples mapping to that
	// bucket; see latBucket for the index function.
	counts [LatencyBuckets]uint64
}

const (
	// latSubBits is log2 of the sub-buckets per octave.
	latSubBits = 3
	// latSubBuckets is the number of sub-buckets each octave is split into.
	latSubBuckets = 1 << latSubBits
	// LatencyBuckets is the total bucket count: indices 0..latSubBuckets-1
	// are the exact unit buckets, and each of the 62-latSubBits+1 octaves
	// [2^k, 2^(k+1)) for k in [latSubBits, 62] contributes latSubBuckets
	// more (every non-negative int64 maps to a bucket).
	LatencyBuckets = (62-latSubBits+1)*latSubBuckets + latSubBuckets
)

// latBucket maps a non-negative value to its bucket index: the identity for
// v < latSubBuckets, then (k-latSubBits)*latSubBuckets + (v >> (k-latSubBits))
// where k is the position of v's most significant bit — the classic
// log-linear (HDR-style) index, computed with one bits.Len64 and one shift.
func latBucket(v int64) int {
	if v < latSubBuckets {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1
	return (k-latSubBits)*latSubBuckets + int(v>>uint(k-latSubBits))
}

// latBucketBounds returns bucket i's inclusive [lo, hi] value range.
func latBucketBounds(i int) (lo, hi int64) {
	if i < latSubBuckets {
		return int64(i), int64(i)
	}
	g := i / latSubBuckets // octave group >= 1; bucket width is 2^(g-1)
	shift := uint(g - 1)
	lo = int64(i-(g-1)*latSubBuckets) << shift
	return lo, lo + (int64(1) << shift) - 1
}

// Observe records one sample; negative values clamp to zero.
func (h *LatencyHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[latBucket(v)]++
	h.n++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// N returns the number of samples observed.
func (h *LatencyHist) N() uint64 { return h.n }

// Mean returns the exact sample mean (integer sum over integer count), or 0
// with no samples.
func (h *LatencyHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observed sample, or 0 with no samples.
func (h *LatencyHist) Max() int64 { return h.max }

// Quantile returns the inclusive upper bound of the bucket holding the
// sample of rank ceil(q*N) (rank 1 = smallest), or 0 with no samples. The
// true q-quantile lies inside that bucket, so the reported value is within
// one bucket width of it — at most 12.5% relative for values above
// latSubBuckets, exact below.
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target == 0 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			_, hi := latBucketBounds(i)
			return hi
		}
	}
	return h.max // unreachable: cum reaches n
}

// CountAtOrBelow returns how many samples certainly have value <= v: the
// total count of buckets whose entire range lies at or below v. Samples in
// v's own bucket are included only when v is the bucket's upper bound, so
// the answer errs low by at most one bucket's population (the same
// one-bucket-width contract Quantile has).
func (h *LatencyHist) CountAtOrBelow(v int64) uint64 {
	if v < 0 {
		return 0
	}
	idx := latBucket(v)
	if _, hi := latBucketBounds(idx); hi > v {
		idx--
	}
	var cum uint64
	for i := 0; i <= idx; i++ {
		cum += h.counts[i]
	}
	return cum
}

// Merge folds other into h as if h had observed all of other's samples. A
// merge of shard histograms is bitwise equal to the histogram of the
// concatenated stream, which is what lets per-core histograms merge into
// per-class distributions exactly.
func (h *LatencyHist) Merge(other *LatencyHist) {
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
}

// Sub removes prev's samples from h, turning a cumulative histogram into the
// delta over an interval; prev must be an earlier snapshot of the same
// stream (every count monotonically <=). Max is left at the cumulative value
// — an upper bound for the interval, since the interval's own max is not
// recoverable from counts.
func (h *LatencyHist) Sub(prev *LatencyHist) {
	h.n -= prev.n
	h.sum -= prev.sum
	for i := range h.counts {
		h.counts[i] -= prev.counts[i]
	}
}

// Reset discards all samples.
func (h *LatencyHist) Reset() { *h = LatencyHist{} }
