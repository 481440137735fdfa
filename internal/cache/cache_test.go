package cache

import (
	"testing"
	"testing/quick"

	"memsched/internal/config"
)

func smallCache(t *testing.T, assoc int) *Cache {
	t.Helper()
	c, err := New(config.CacheConfig{
		SizeBytes: 4 * assoc * 64, LineBytes: 64, Assoc: assoc, HitLatency: 1, MSHRs: 4,
	}) // 4 sets
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(config.CacheConfig{SizeBytes: 100, LineBytes: 64, Assoc: 2}); err == nil {
		t.Error("non-pow2 set count accepted")
	}
	if _, err := New(config.CacheConfig{SizeBytes: 128, LineBytes: 64, Assoc: 0}); err == nil {
		t.Error("zero associativity accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(config.CacheConfig{SizeBytes: 100, LineBytes: 64, Assoc: 3})
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t, 2)
	if c.Lookup(42, false) {
		t.Fatal("cold cache hit")
	}
	c.Insert(42, false)
	if !c.Lookup(42, false) {
		t.Fatal("miss after insert")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t, 2) // 4 sets, lines mapping to set 0: multiples of 4
	c.Insert(0, false)
	c.Insert(4, false)
	c.Lookup(0, false) // touch 0: 4 becomes LRU
	victim, evicted := c.Insert(8, false)
	if !evicted || victim.Line != 4 {
		t.Fatalf("evicted %+v (%v), want line 4", victim, evicted)
	}
	if !c.Peek(0) || !c.Peek(8) || c.Peek(4) {
		t.Fatal("cache contents wrong after LRU eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0, false)
	c.Lookup(0, true) // dirty it
	c.Insert(4, false)
	victim, evicted := c.Insert(8, false)
	if !evicted || victim.Line != 0 || !victim.Dirty {
		t.Fatalf("victim = %+v (%v), want dirty line 0", victim, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestInsertDirtyFlag(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0, true)
	c.Insert(4, false)
	victim, _ := c.Insert(8, false)
	if victim.Line != 0 || !victim.Dirty {
		t.Fatalf("store-allocated line should evict dirty, got %+v", victim)
	}
}

func TestReinsertRefreshes(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0, false)
	c.Insert(4, false)
	if _, evicted := c.Insert(0, true); evicted {
		t.Fatal("re-inserting a present line must not evict")
	}
	// 0 was refreshed and dirtied; inserting 8 should evict 4.
	victim, _ := c.Insert(8, false)
	if victim.Line != 4 {
		t.Fatalf("evicted %d, want 4", victim.Line)
	}
}

func TestPeekDoesNotDisturb(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0, false)
	c.Insert(4, false)
	for i := 0; i < 10; i++ {
		c.Peek(4) // must NOT refresh LRU
	}
	before := c.Stats()
	victim, _ := c.Insert(8, false)
	if victim.Line != 0 {
		t.Fatalf("Peek disturbed LRU: evicted %d, want 0", victim.Line)
	}
	if c.Stats().Hits != before.Hits || c.Stats().Misses != before.Misses {
		t.Fatal("Peek changed statistics")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t, 2)
	c.Insert(0, false)
	c.Lookup(0, true)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v want true,true", present, dirty)
	}
	if c.Peek(0) {
		t.Fatal("line still present after Invalidate")
	}
	if present, _ := c.Invalidate(0); present {
		t.Fatal("double Invalidate reported present")
	}
}

func TestSetIsolation(t *testing.T) {
	// Filling one set must not evict lines in other sets.
	c := smallCache(t, 2)
	c.Insert(1, false) // set 1
	for i := uint64(0); i < 16; i += 4 {
		c.Insert(i, false) // set 0
	}
	if !c.Peek(1) {
		t.Fatal("set-0 traffic evicted a set-1 line")
	}
}

func TestCapacityProperty(t *testing.T) {
	// Property: after inserting distinct lines into one set, at most assoc of
	// them survive, and the survivors are the most recently inserted.
	f := func(assocRaw, nRaw uint8) bool {
		assoc := int(assocRaw%4) + 1
		n := int(nRaw%20) + 1
		c := MustNew(config.CacheConfig{
			SizeBytes: 2 * assoc * 64, LineBytes: 64, Assoc: assoc, HitLatency: 1, MSHRs: 1,
		}) // 2 sets
		for i := 0; i < n; i++ {
			c.Insert(uint64(i*2), false) // all in set 0
		}
		survivors := 0
		for i := 0; i < n; i++ {
			if c.Peek(uint64(i * 2)) {
				survivors++
				if n-i > assoc {
					return false // an old line outlived newer ones
				}
			}
		}
		want := n
		if want > assoc {
			want = assoc
		}
		return survivors == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRMergeAndComplete(t *testing.T) {
	m := NewMSHR(2)
	calls := []int{}
	merged, ok := m.Allocate(10, Waiter{Done: func(int64) { calls = append(calls, 1) }})
	if merged || !ok {
		t.Fatalf("first Allocate = merged %v ok %v", merged, ok)
	}
	merged, ok = m.Allocate(10, Waiter{Done: func(int64) { calls = append(calls, 2) }})
	if !merged || !ok {
		t.Fatalf("second Allocate = merged %v ok %v, want merge", merged, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (merged)", m.Len())
	}
	ws := m.Take(10)
	for _, w := range ws {
		w.Done(99)
	}
	if len(ws) != 2 || len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Fatalf("Take released %d waiters in order %v", len(ws), calls)
	}
	m.Recycle(ws)
	if m.Len() != 0 {
		t.Fatal("entry not freed")
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, Waiter{})
	if !m.Full() {
		t.Fatal("MSHR with 1 entry should be full")
	}
	if _, ok := m.Allocate(2, Waiter{}); ok {
		t.Fatal("allocation beyond capacity succeeded")
	}
	// Merging is still allowed when full.
	if merged, ok := m.Allocate(1, Waiter{}); !merged || !ok {
		t.Fatal("merge rejected on full MSHR")
	}
}

func TestMSHRTakeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Take of unknown line should panic")
		}
	}()
	NewMSHR(1).Take(7)
}

func TestMSHROutstanding(t *testing.T) {
	m := NewMSHR(2)
	if m.Outstanding(5) {
		t.Fatal("empty MSHR reports outstanding")
	}
	m.Allocate(5, Waiter{})
	if !m.Outstanding(5) {
		t.Fatal("allocated line not outstanding")
	}
}

func TestMSHRRecycleReusesEntrySlices(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, Waiter{Write: true})
	m.Recycle(m.Take(1))
	// The recycled slice must come back empty: stale waiters leaking into a
	// fresh entry would replay phantom accesses.
	m.Allocate(2, Waiter{})
	ws := m.Take(2)
	if len(ws) != 1 || ws[0].Write {
		t.Fatalf("recycled entry carried stale waiters: %+v", ws)
	}
	m.Recycle(ws)
}

var footprintSink *Cache

// TestCacheFootprint pins the tag store's size: the default 4 MB L2 must cost
// at most 10 bytes per frame (a tag word and a state byte, not a per-set
// slice header plus a stamped frame) and no more objects than the three the
// per-set layout allocated.
func TestCacheFootprint(t *testing.T) {
	cc := config.Default(1).L2
	frames := cc.SizeBytes / cc.LineBytes
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			footprintSink = MustNew(cc)
		}
	})
	if per := float64(res.AllocedBytesPerOp()) / float64(frames); per > 10 {
		t.Errorf("New(L2) allocates %d B for %d frames (%.2f B/frame), want <= 10",
			res.AllocedBytesPerOp(), frames, per)
	}
	if n := res.AllocsPerOp(); n > 3 {
		t.Errorf("New(L2) allocates %d objects, want <= 3", n)
	}
}
