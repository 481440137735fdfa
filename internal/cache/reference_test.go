package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memsched/internal/config"
)

// This file keeps the original tag store and MSHR file as reference models
// for TestCacheMatchesReference and FuzzCacheLRU: per-set slices of way
// frames with a global use-clock stamp per access (LRU victim = minimum
// stamp), and a map from outstanding line to its waiters.

type refWay struct {
	valid   bool
	dirty   bool
	tag     uint64
	lastUse uint64
}

type refCache struct {
	sets     [][]refWay
	setMask  uint64
	useClock uint64
	stats    Stats
}

func newRefCache(cc config.CacheConfig) (*refCache, error) {
	if cc.Assoc < 1 || cc.LineBytes < 1 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", cc)
	}
	nSets := cc.SizeBytes / (cc.Assoc * cc.LineBytes)
	if nSets < 1 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nSets)
	}
	c := &refCache{sets: make([][]refWay, nSets), setMask: uint64(nSets - 1)}
	ways := make([]refWay, nSets*cc.Assoc)
	for i := range c.sets {
		c.sets[i], ways = ways[:cc.Assoc], ways[cc.Assoc:]
	}
	return c, nil
}

func (c *refCache) Sets() int { return len(c.sets) }

func (c *refCache) setOf(line uint64) []refWay { return c.sets[line&c.setMask] }

func (c *refCache) Lookup(line uint64, write bool) bool {
	if w := c.probe(line); w != nil {
		c.touch(w, write)
		return true
	}
	c.stats.Misses++
	return false
}

func (c *refCache) probe(line uint64) *refWay {
	set := c.setOf(line)
	for i := range set {
		if w := &set[i]; w.valid && w.tag == line {
			return w
		}
	}
	return nil
}

func (c *refCache) touch(w *refWay, write bool) {
	c.useClock++
	w.lastUse = c.useClock
	if write {
		w.dirty = true
	}
	c.stats.Hits++
}

func (c *refCache) Peek(line uint64) bool { return c.probe(line) != nil }

func (c *refCache) Insert(line uint64, dirty bool) (Victim, bool) {
	set := c.setOf(line)
	c.useClock++
	if w := c.probe(line); w != nil {
		w.lastUse = c.useClock
		w.dirty = w.dirty || dirty
		return Victim{}, false
	}
	for i := range set {
		if w := &set[i]; !w.valid {
			*w = refWay{valid: true, dirty: dirty, tag: line, lastUse: c.useClock}
			return Victim{}, false
		}
	}
	lru := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[lru].lastUse {
			lru = i
		}
	}
	victim := Victim{Line: set[lru].tag, Dirty: set[lru].dirty}
	set[lru] = refWay{valid: true, dirty: dirty, tag: line, lastUse: c.useClock}
	c.stats.Evictions++
	if victim.Dirty {
		c.stats.Writebacks++
	}
	return victim, true
}

func (c *refCache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	if w := c.probe(line); w != nil {
		d := w.dirty
		*w = refWay{}
		return true, d
	}
	return false, false
}

type refMSHR struct {
	cap     int
	pending map[uint64][]Waiter
}

func newRefMSHR(n int) *refMSHR {
	return &refMSHR{cap: n, pending: make(map[uint64][]Waiter, n)}
}

func (m *refMSHR) Len() int { return len(m.pending) }

func (m *refMSHR) Full() bool { return len(m.pending) >= m.cap }

func (m *refMSHR) Outstanding(line uint64) bool {
	_, ok := m.pending[line]
	return ok
}

func (m *refMSHR) Allocate(line uint64, w Waiter) (merged, ok bool) {
	if ws, exists := m.pending[line]; exists {
		m.pending[line] = append(ws, w)
		return true, true
	}
	if m.Full() {
		return false, false
	}
	m.pending[line] = []Waiter{w}
	return false, true
}

func (m *refMSHR) Take(line uint64) []Waiter {
	ws, ok := m.pending[line]
	if !ok {
		panic(fmt.Sprintf("cache: MSHR completion for line %#x with no entry", line))
	}
	delete(m.pending, line)
	return ws
}

// refGeom is one cache geometry the differential runs against the reference.
type refGeom struct{ sets, ways int }

// refGeoms spans direct-mapped to 16-way, one set to 512.
var refGeoms = func() []refGeom {
	var gs []refGeom
	for _, ways := range []int{1, 2, 4, 16} {
		for _, sets := range []int{1, 2, 512} {
			gs = append(gs, refGeom{sets: sets, ways: ways})
		}
	}
	return gs
}()

// refLines returns the line pool a differential draws from: the extremes of
// the uint64 range, and enough lines in sets 0, 1 and the last set (with and
// without the top bit) to overflow them twice.
func refLines(g refGeom) []uint64 {
	lines := []uint64{0, 1, 1 << 63, 1<<63 + 1, ^uint64(0), ^uint64(0) - 1}
	for k := 0; k < 2*g.ways+2; k++ {
		step := uint64(k * g.sets)
		lines = append(lines, step, step+1, 1<<63+step, ^uint64(0)-step)
	}
	return lines
}

// runReference applies ops to the flat cache and MSHR file and to the
// reference models side by side, comparing every observable after each op.
// Each op is two bytes: the operation and an index into the line pool.
func runReference(t testing.TB, g refGeom, ops []byte) {
	cc := config.CacheConfig{SizeBytes: g.sets * g.ways * 64, LineBytes: 64, Assoc: g.ways}
	c := MustNew(cc)
	r, err := newRefCache(cc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != r.Sets() || c.Sets() != g.sets {
		t.Fatalf("%+v: Sets() = %d, reference %d", g, c.Sets(), r.Sets())
	}
	mshrCap := 4 * g.ways
	m, rm := NewMSHR(mshrCap), newRefMSHR(mshrCap)
	lines := refLines(g)
	waiter := int32(0)
	for i := 0; i+1 < len(ops); i += 2 {
		op, line := ops[i]%12, lines[int(ops[i+1])%len(lines)]
		where := func() string { return fmt.Sprintf("%+v op %d (kind %d, line %#x)", g, i/2, op, line) }
		switch op {
		case 0, 1:
			if got, want := c.Lookup(line, op == 1), r.Lookup(line, op == 1); got != want {
				t.Fatalf("%s: Lookup = %v, reference %v", where(), got, want)
			}
		case 2:
			if got, want := c.Peek(line), r.Peek(line); got != want {
				t.Fatalf("%s: Peek = %v, reference %v", where(), got, want)
			}
		case 3, 4:
			v, ev := c.Insert(line, op == 4)
			rv, rev := r.Insert(line, op == 4)
			if v != rv || ev != rev {
				t.Fatalf("%s: Insert = %+v %v, reference %+v %v", where(), v, ev, rv, rev)
			}
		case 5:
			p, d := c.Invalidate(line)
			rp, rd := r.Invalidate(line)
			if p != rp || d != rd {
				t.Fatalf("%s: Invalidate = %v %v, reference %v %v", where(), p, d, rp, rd)
			}
		case 6, 7:
			f, w := c.probe(line), r.probe(line)
			if (f >= 0) != (w != nil) {
				t.Fatalf("%s: probe = %d, reference hit %v", where(), f, w != nil)
			}
			if f >= 0 {
				c.touch(f, op == 7)
				r.touch(w, op == 7)
			}
		case 8, 9:
			waiter++
			w := Waiter{Core: waiter, Write: op == 9}
			merged, ok := m.Allocate(line, w)
			rmerged, rok := rm.Allocate(line, w)
			if merged != rmerged || ok != rok {
				t.Fatalf("%s: Allocate = %v %v, reference %v %v", where(), merged, ok, rmerged, rok)
			}
		case 10:
			if !rm.Outstanding(line) {
				if !takePanics(m, line) {
					t.Fatalf("%s: Take of a line with no entry did not panic", where())
				}
				break
			}
			got, want := m.Take(line), rm.Take(line)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Take = %+v, reference %+v", where(), got, want)
			}
			m.Recycle(got)
		case 11:
			if got, want := m.Outstanding(line), rm.Outstanding(line); got != want {
				t.Fatalf("%s: Outstanding = %v, reference %v", where(), got, want)
			}
		}
		if c.Stats() != r.stats {
			t.Fatalf("%s: Stats = %+v, reference %+v", where(), c.Stats(), r.stats)
		}
		if m.Len() != rm.Len() || m.Full() != rm.Full() {
			t.Fatalf("%s: MSHR Len/Full = %d/%v, reference %d/%v", where(), m.Len(), m.Full(), rm.Len(), rm.Full())
		}
	}
	for _, line := range lines {
		if c.Peek(line) != r.Peek(line) || m.Outstanding(line) != rm.Outstanding(line) {
			t.Fatalf("%+v: final contents differ at line %#x", g, line)
		}
	}
}

func takePanics(m *MSHR, line uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	m.Take(line)
	return false
}

// TestCacheMatchesReference drives the flat recency-ordered tag store and the
// slice-backed MSHR file with seeded random operation sequences and requires
// every return value, victim, statistic and waiter order to match the
// stamp-LRU and map-backed reference models.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x11C))
	for _, g := range refGeoms {
		for seq := 0; seq < 8; seq++ {
			ops := make([]byte, 2*4000)
			rng.Read(ops)
			runReference(t, g, ops)
		}
	}
}

// FuzzCacheLRU is TestCacheMatchesReference driven from bytes: the first byte
// picks the geometry, the rest are (operation, line) pairs.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 0, 4, 2})
	f.Add([]byte{5, 4, 4, 4, 8, 4, 12, 0, 4, 3, 16, 5, 8, 8, 1, 10, 1})
	f.Add([]byte{11, 3, 2, 3, 4, 6, 2, 7, 4, 9, 4, 10, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runReference(t, refGeoms[int(data[0])%len(refGeoms)], data[1:])
	})
}
