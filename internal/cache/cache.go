// Package cache implements the processor cache hierarchy: set-associative
// write-back write-allocate caches with true-LRU replacement, miss status
// holding registers (MSHRs) with same-line merging, and the two-level
// L1D / shared-L2 hierarchy of the paper's Table 1.
package cache

import (
	"fmt"

	"memsched/internal/config"
)

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// MissRate returns misses / (hits + misses).
func (s *Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a single set-associative write-back cache operating on cache-line
// addresses. It models only the tag array: the simulator never moves data.
//
// Frame f of set s is tags[s*assoc+f] with its state byte beside it in
// state. A set's valid frames form a prefix ordered most recently used
// first, so the LRU victim is always the last valid frame: a hit moves its
// frame to the front, Insert shifts the set back by one (dropping the tail
// when the set is full), and Invalidate closes the gap. Tags hold the full
// line address, so any uint64 line is representable.
type Cache struct {
	tags    []uint64
	state   []uint8 // frameEmpty, frameClean or frameDirty
	setMask uint64
	assoc   int
	stats   Stats
}

// Frame states. The zero value marks a frame past the set's valid prefix.
const (
	frameEmpty uint8 = iota
	frameClean
	frameDirty
)

// New builds a cache from a validated CacheConfig.
func New(cc config.CacheConfig) (*Cache, error) {
	if cc.Assoc < 1 || cc.LineBytes < 1 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", cc)
	}
	nSets := cc.SizeBytes / (cc.Assoc * cc.LineBytes)
	if nSets < 1 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nSets)
	}
	return &Cache{
		tags:    make([]uint64, nSets*cc.Assoc),
		state:   make([]uint8, nSets*cc.Assoc),
		setMask: uint64(nSets - 1),
		assoc:   cc.Assoc,
	}, nil
}

// MustNew is New but panics on invalid geometry.
func MustNew(cc config.CacheConfig) *Cache {
	c, err := New(cc)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets (for tests).
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Stats returns a copy of the cache's event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counts; contents and LRU state are kept.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Lookup probes for line. On a hit it updates LRU state and, if write is
// set, marks the block dirty. It returns whether the access hit.
func (c *Cache) Lookup(line uint64, write bool) bool {
	if f := c.probe(line); f >= 0 {
		c.touch(f, write)
		return true
	}
	c.stats.Misses++
	return false
}

// probe returns the index of the frame holding line, or -1 on a miss. It
// records no statistics and touches no LRU state: in-package callers on the
// hot path use it to combine the hazard check and the tag lookup into one set
// scan, applying Lookup's hit side effects via touch (or counting the miss
// themselves) once the outcome is known.
func (c *Cache) probe(line uint64) int {
	base := int(line&c.setMask) * c.assoc
	tags := c.tags[base : base+c.assoc]
	for i, t := range tags {
		if t == line {
			// A frame past the valid prefix may keep a stale tag; the
			// line cannot sit further on, behind an empty frame.
			if c.state[base+i] == frameEmpty {
				return -1
			}
			return base + i
		}
	}
	return -1
}

// touch applies Lookup's hit side effects to a frame returned by probe:
// move to the front of the recency order, optional dirty marking, and the
// hit count. The index is only valid until the next touch, Insert or
// Invalidate on this cache.
func (c *Cache) touch(f int, write bool) {
	if write {
		c.state[f] = frameDirty
	}
	line := c.tags[f]
	if base := int(line&c.setMask) * c.assoc; f != base {
		c.moveFront(base, f, line, c.state[f])
	}
	c.stats.Hits++
}

// moveFront shifts frames [base, f) back by one and stores (tag, st) in the
// set's front frame, base.
func (c *Cache) moveFront(base, f int, tag uint64, st uint8) {
	for i := f; i > base; i-- {
		c.tags[i], c.state[i] = c.tags[i-1], c.state[i-1]
	}
	c.tags[base], c.state[base] = tag, st
}

// Peek probes for line without updating LRU, dirty bits, or statistics.
func (c *Cache) Peek(line uint64) bool { return c.probe(line) >= 0 }

// Victim describes a block evicted by Insert.
type Victim struct {
	Line  uint64
	Dirty bool
}

// Insert fills line into the cache (after a miss was serviced), evicting the
// LRU way if the set is full. dirty marks the incoming block dirty (e.g. a
// store that missed). It returns the evicted block, if any.
//
// Inserting a line that is already present just refreshes its state (this
// happens when two merged misses complete) and evicts nothing.
func (c *Cache) Insert(line uint64, dirty bool) (Victim, bool) {
	st := frameClean
	if dirty {
		st = frameDirty
	}
	base := int(line&c.setMask) * c.assoc
	n := 0 // valid frames in the set
	for ; n < c.assoc && c.state[base+n] != frameEmpty; n++ {
		if c.tags[base+n] == line {
			c.moveFront(base, base+n, line, max(c.state[base+n], st))
			return Victim{}, false
		}
	}
	if n < c.assoc {
		c.moveFront(base, base+n, line, st)
		return Victim{}, false
	}
	last := base + n - 1
	victim := Victim{Line: c.tags[last], Dirty: c.state[last] == frameDirty}
	c.moveFront(base, last, line, st)
	c.stats.Evictions++
	if victim.Dirty {
		c.stats.Writebacks++
	}
	return victim, true
}

// Invalidate removes line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line uint64) (wasPresent, wasDirty bool) {
	f := c.probe(line)
	if f < 0 {
		return false, false
	}
	wasDirty = c.state[f] == frameDirty
	end := int(line&c.setMask)*c.assoc + c.assoc
	for ; f+1 < end && c.state[f+1] != frameEmpty; f++ {
		c.tags[f], c.state[f] = c.tags[f+1], c.state[f+1]
	}
	c.state[f] = frameEmpty
	return true, wasDirty
}

// NoCore marks a Waiter that wakes nobody on completion (e.g. a stream
// prefetch merged into the L2 MSHR file).
const NoCore = int32(-1)

// Waiter is one request merged into an MSHR entry. The fields are a union of
// what the two users of MSHRs need, so waiters are plain values and neither
// registration nor completion allocates a closure:
//
//	L1D/L1I files: Write (replay the access against the L1 on fill, which
//	re-establishes LRU order and the dirty bit) and Done (the core's
//	persistent callback, may be nil).
//	L2 file: Core and Instr route the fill to that core's L1D or L1I;
//	Core == NoCore wakes nobody.
type Waiter struct {
	Write bool
	Instr bool
	Core  int32
	Done  func(now int64)
}

// MSHR tracks outstanding misses, merging requests to the same line into one
// downstream fetch. Entries live in parallel slices searched linearly (files
// hold a few dozen entries at most); nothing observes their order.
type MSHR struct {
	cap   int
	lines []uint64   // outstanding lines
	ws    [][]Waiter // ws[i] holds lines[i]'s waiters in registration order
	// pool recycles waiter slices between entries so steady-state allocation
	// registers nothing.
	pool [][]Waiter
}

// NewMSHR builds an MSHR file with n entries.
func NewMSHR(n int) *MSHR {
	return &MSHR{cap: n, lines: make([]uint64, 0, n), ws: make([][]Waiter, 0, n)}
}

// Len returns the number of allocated entries (distinct outstanding lines).
func (m *MSHR) Len() int { return len(m.lines) }

// Full reports whether a new (non-mergeable) allocation would fail.
func (m *MSHR) Full() bool { return len(m.lines) >= m.cap }

// find returns line's entry index, or -1.
func (m *MSHR) find(line uint64) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// Outstanding reports whether line already has an entry.
func (m *MSHR) Outstanding(line uint64) bool { return m.find(line) >= 0 }

// Allocate registers a waiter for line. It returns:
//
//	merged=true  if the line was already outstanding (no new fetch needed),
//	ok=false     if a new entry was required but the file is full.
func (m *MSHR) Allocate(line uint64, w Waiter) (merged, ok bool) {
	if i := m.find(line); i >= 0 {
		m.ws[i] = append(m.ws[i], w)
		return true, true
	}
	if m.Full() {
		return false, false
	}
	var ws []Waiter
	if n := len(m.pool); n > 0 {
		ws, m.pool = m.pool[n-1], m.pool[:n-1]
	} else {
		ws = make([]Waiter, 0, 4)
	}
	m.lines = append(m.lines, line)
	m.ws = append(m.ws, append(ws, w))
	return false, true
}

// Take frees the entry for line and returns its waiters in registration
// order. The caller services them and then must hand the slice back via
// Recycle. Taking a line with no entry is a bug in the caller and panics.
func (m *MSHR) Take(line uint64) []Waiter {
	i := m.find(line)
	if i < 0 {
		panic(fmt.Sprintf("cache: MSHR completion for line %#x with no entry", line))
	}
	ws := m.ws[i]
	last := len(m.lines) - 1
	m.lines[i], m.ws[i] = m.lines[last], m.ws[last]
	m.ws[last] = nil
	m.lines, m.ws = m.lines[:last], m.ws[:last]
	return ws
}

// Recycle returns a slice obtained from Take to the entry pool, dropping the
// waiters' callbacks for GC.
func (m *MSHR) Recycle(ws []Waiter) {
	for i := range ws {
		ws[i] = Waiter{}
	}
	m.pool = append(m.pool, ws[:0])
}
