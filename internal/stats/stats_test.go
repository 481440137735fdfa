package stats

import (
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero")
	}
}

// TestRunningBasics checks the running mean accumulator (Mean): the count
// and the exact mean after a stream of samples.
func TestRunningBasics(t *testing.T) {
	var m Mean
	for _, v := range []uint64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Observe(v)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8", m.N())
	}
	if m.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", m.Mean())
	}
	m.Observe(1)
	if want := 41.0 / 9; m.Mean() != want {
		t.Errorf("Mean = %v, want exactly %v", m.Mean(), want)
	}
}

// TestRunningEmpty checks that a Mean with no samples reports zeros.
func TestRunningEmpty(t *testing.T) {
	var m Mean
	if m.N() != 0 || m.Mean() != 0 {
		t.Fatal("empty Mean should report zeros")
	}
}

// TestObserveNEquivalent checks that ObserveN(v, k) is bitwise equal to k
// repeated Observe(v) calls after any prefix of samples — the run loop relies
// on this when absorbing skipped stall cycles into per-cycle statistics.
func TestObserveNEquivalent(t *testing.T) {
	check := func(v uint32, k uint8, prefix []uint32) bool {
		var bulk, loop Mean
		for _, p := range prefix {
			bulk.Observe(uint64(p))
			loop.Observe(uint64(p))
		}
		bulk.ObserveN(uint64(v), uint64(k))
		for i := uint8(0); i < k; i++ {
			loop.Observe(uint64(v))
		}
		return bulk == loop
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// k = 0 must be a no-op.
	var m Mean
	m.Observe(3)
	m.ObserveN(9, 0)
	if m.N() != 1 || m.Mean() != 3 {
		t.Errorf("ObserveN(v, 0) mutated the accumulator: %+v", m)
	}
}
