// Package stats provides the statistics primitives the simulator records
// results with: event counters, exact integer means, and the log-linear
// read-latency histogram (LatencyHist).
//
// Every sample the simulator takes is an integer cycle count or queue depth,
// so all state here is integer: two accumulators fed the same sample
// multiset are bitwise equal regardless of order or batching, which is what
// lets the cycle-skipping run loop match the naive loop exactly. The hot path
// (one update per simulated event) must not allocate, so every type here is
// a plain struct updated in place.
package stats

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Mean accumulates non-negative integer samples as an exact count and sum;
// the mean is one division at read time. ObserveN(v, k) is bitwise equal to
// k calls of Observe(v), so per-cycle samples absorbed in bulk over a skipped
// quiescent stretch (see internal/sim) leave no trace of the batching. The
// samples are cycle counts and queue depths, so the sum stays far below
// 2^64 for any feasible run.
type Mean struct {
	n, sum uint64
}

// Observe adds one sample.
func (m *Mean) Observe(v uint64) {
	m.n++
	m.sum += v
}

// ObserveN adds k identical samples of value v.
func (m *Mean) ObserveN(v, k uint64) {
	m.n += k
	m.sum += k * v
}

// N returns the number of samples observed.
func (m *Mean) N() uint64 { return m.n }

// Mean returns the sample mean, or 0 with no samples.
func (m *Mean) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.sum) / float64(m.n)
}
