package cache

import (
	"testing"

	"memsched/internal/config"
)

func BenchmarkLookupHit(b *testing.B) {
	c := MustNew(config.Default(1).L1D)
	for i := uint64(0); i < 256; i++ {
		c.Insert(i, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i)&255, false)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := MustNew(config.Default(1).L1D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), i&1 == 0)
	}
}

func BenchmarkMSHRAllocateComplete(b *testing.B) {
	m := NewMSHR(32)
	fn := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i % 16)
		if merged, ok := m.Allocate(line, Waiter{Done: fn}); ok && !merged {
			ws := m.Take(line)
			for _, w := range ws {
				w.Done(int64(i))
			}
			m.Recycle(ws)
		}
	}
}

// BenchmarkHierarchyMSHRFull measures one cycle of the hierarchy and its
// controller while the shared L2 miss file is full: two cores stream misses
// that keep their L1 miss files saturated, so most L2 requests wait parked.
func BenchmarkHierarchyMSHRFull(b *testing.B) {
	cfg := config.Default(2)
	cfg.L2.MSHRs = 4
	h, mc := newHierarchyFor(b, &cfg)
	nop := func(int64) {}
	lines := []uint64{0, 1 << 32}
	now := int64(0)
	step := func() {
		for core := range lines {
			for {
				if _, _, ok := h.Access(core, lines[core], false, now, nop); !ok {
					break
				}
				lines[core]++
			}
		}
		h.Tick(now)
		mc.Tick(now)
		now++
	}
	for i := 0; i < 20_000; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
