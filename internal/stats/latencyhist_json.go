package stats

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// latencyHistJSON is the wire form of LatencyHist: the scalar state plus a
// sparse map of occupied buckets, so an empty histogram costs a few bytes and
// a typical one costs tens of entries rather than LatencyBuckets zeros.
// encoding/json sorts map keys, so the encoding is canonical — equal
// histograms marshal to equal bytes, which content-addressed result caches
// rely on.
type latencyHistJSON struct {
	N      uint64            `json:"n"`
	Sum    uint64            `json:"sum"`
	Max    int64             `json:"max"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// MarshalJSON encodes the histogram sparsely (occupied buckets only).
func (h LatencyHist) MarshalJSON() ([]byte, error) {
	out := latencyHistJSON{N: h.n, Sum: h.sum, Max: h.max}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if out.Counts == nil {
			out.Counts = make(map[string]uint64)
		}
		out.Counts[strconv.Itoa(i)] = c
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the sparse form, validating that every bucket key is
// the canonical decimal form of an in-range index (so no two keys can alias
// one bucket), that max is non-negative, and that the bucket population sums
// to the scalar count without wrapping, so a corrupted or schema-drifted
// payload fails loudly instead of yielding a silently inconsistent histogram.
func (h *LatencyHist) UnmarshalJSON(data []byte) error {
	var in latencyHistJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Max < 0 {
		return fmt.Errorf("stats: latency histogram max %d is negative", in.Max)
	}
	var out LatencyHist
	out.n, out.sum, out.max = in.N, in.Sum, in.Max
	var total uint64
	for key, c := range in.Counts {
		i, err := strconv.Atoi(key)
		if err != nil || i < 0 || i >= LatencyBuckets || key != strconv.Itoa(i) {
			return fmt.Errorf("stats: latency histogram bucket key %q is not a bucket index", key)
		}
		if total+c < total {
			return fmt.Errorf("stats: latency histogram bucket counts overflow")
		}
		out.counts[i] = c
		total += c
	}
	if total != in.N {
		return fmt.Errorf("stats: latency histogram count mismatch: n=%d but buckets hold %d", in.N, total)
	}
	*h = out
	return nil
}
