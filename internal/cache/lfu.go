package cache

import (
	"container/heap"
	"maps"
)

// priorityCache is the shared heap machinery behind LFU, perfect-LFU and
// the GreedyDual family: a byte-capacity cache that always evicts the
// resident object with the smallest priority.
type priorityCache struct {
	capacity int64
	size     int64
	items    map[uint64]*pcEntry
	heap     pcHeap
	tick     uint64 // insertion counter for deterministic tie-breaking

	// evicted is a reusable scratch list of keys the last insert displaced,
	// so policies can release per-key metadata without scanning.
	evicted []uint64
}

type pcEntry struct {
	key      uint64
	size     int64
	priority float64
	tick     uint64
	index    int // heap index
}

type pcHeap []*pcEntry

func (h pcHeap) Len() int { return len(h) }
func (h pcHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].tick < h[j].tick // older entry evicted first on ties
}
func (h pcHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *pcHeap) Push(x interface{}) {
	e := x.(*pcEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *pcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func newPriorityCache(capacity int64) priorityCache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return priorityCache{capacity: capacity, items: make(map[uint64]*pcEntry)}
}

func (c *priorityCache) contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

func (c *priorityCache) setPriority(key uint64, p float64) {
	if e, ok := c.items[key]; ok {
		e.priority = p
		heap.Fix(&c.heap, e.index)
	}
}

// insert adds key, evicting minimum-priority entries until it fits.
// It returns the priority of the last evicted entry (the GreedyDual "L"
// update), or 0 if nothing was evicted.
func (c *priorityCache) insert(key uint64, size int64, priority float64) (lastEvicted float64) {
	c.evicted = c.evicted[:0]
	if size <= 0 || size > c.capacity {
		return 0
	}
	if e, ok := c.items[key]; ok {
		c.size += size - e.size
		e.size = size
		e.priority = priority
		heap.Fix(&c.heap, e.index)
	} else {
		c.tick++
		e := &pcEntry{key: key, size: size, priority: priority, tick: c.tick}
		c.items[key] = e
		heap.Push(&c.heap, e)
		c.size += size
	}
	for c.size > c.capacity && len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*pcEntry)
		delete(c.items, ev.key)
		c.size -= ev.size
		c.evicted = append(c.evicted, ev.key)
		lastEvicted = ev.priority
	}
	return lastEvicted
}

// resize sets a new capacity and evicts minimum-priority entries until
// the resident set fits, recording them in c.evicted so policies can
// release per-key metadata.
func (c *priorityCache) resize(capacity int64) {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	c.evicted = c.evicted[:0]
	for c.size > c.capacity && len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*pcEntry)
		delete(c.items, ev.key)
		c.size -= ev.size
		c.evicted = append(c.evicted, ev.key)
	}
}

func (c *priorityCache) remove(key uint64) {
	if e, ok := c.items[key]; ok {
		heap.Remove(&c.heap, e.index)
		delete(c.items, key)
		c.size -= e.size
	}
}

// copyInto makes d a deep copy of c, reusing d's entries, heap array and
// index map. The heap array is copied slot for slot, so the copy pops,
// fixes and breaks ties exactly as the source does.
func (c *priorityCache) copyInto(d *priorityCache) {
	old := d.heap
	if cap(d.heap) < cap(c.heap) {
		d.heap = make(pcHeap, len(c.heap), cap(c.heap))
	} else {
		d.heap = d.heap[:len(c.heap)]
	}
	if len(old) > len(c.heap) {
		clear(old[len(c.heap):]) // drop the entries the copy does not reuse
	}
	if d.items == nil {
		d.items = make(map[uint64]*pcEntry, len(c.heap))
	} else {
		clear(d.items)
	}
	var fresh []pcEntry // one slab for the entries d has no storage for
	if n := len(c.heap) - len(old); n > 0 {
		fresh = make([]pcEntry, n)
	}
	for i, e := range c.heap {
		var ne *pcEntry
		if i < len(old) {
			ne = old[i] // read before d.heap[i], which may alias it, is set
		} else {
			ne = &fresh[i-len(old)]
		}
		*ne = *e
		d.heap[i] = ne
		d.items[ne.key] = ne
	}
	d.capacity, d.size, d.tick = c.capacity, c.size, c.tick
	d.evicted = d.evicted[:0]
}

// copyFreqs returns dst (or a new map when dst is nil) holding exactly
// src's counters.
func copyFreqs(dst, src map[uint64]float64) map[uint64]float64 {
	if dst == nil {
		dst = make(map[uint64]float64, len(src))
	} else {
		clear(dst)
	}
	maps.Copy(dst, src)
	return dst
}

// LFU evicts the resident object with the fewest accesses since insertion
// (in-cache frequency only; counts are lost on eviction).
type LFU struct {
	pc    priorityCache
	freqs map[uint64]float64
}

// NewLFU returns an in-cache LFU policy with the given byte capacity.
func NewLFU(capacity int64) *LFU {
	return &LFU{pc: newPriorityCache(capacity), freqs: make(map[uint64]float64)}
}

// Name implements Policy.
func (c *LFU) Name() string { return "lfu" }

// Get implements Policy.
func (c *LFU) Get(key uint64) bool {
	if !c.pc.contains(key) {
		return false
	}
	c.freqs[key]++
	c.pc.setPriority(key, c.freqs[key])
	return true
}

// Put implements Policy.
func (c *LFU) Put(key uint64, size int64) {
	if !c.pc.contains(key) {
		c.freqs[key] = 1
	}
	c.pc.insert(key, size, c.freqs[key])
	// In-cache LFU: counters die with eviction.
	for _, k := range c.pc.evicted {
		delete(c.freqs, k)
	}
}

// Contains implements Policy.
func (c *LFU) Contains(key uint64) bool { return c.pc.contains(key) }

// Remove implements Policy.
func (c *LFU) Remove(key uint64) {
	c.pc.remove(key)
	delete(c.freqs, key)
}

// Len implements Policy.
func (c *LFU) Len() int { return len(c.pc.items) }

// Size implements Policy.
func (c *LFU) Size() int64 { return c.pc.size }

// Capacity implements Policy.
func (c *LFU) Capacity() int64 { return c.pc.capacity }

// Resize implements Policy; in-cache counters die with resize evictions,
// exactly as with insert evictions.
func (c *LFU) Resize(capacity int64) {
	c.pc.resize(capacity)
	for _, k := range c.pc.evicted {
		delete(c.freqs, k)
	}
}

// CopyInto implements Policy.
func (c *LFU) CopyInto(dst Policy) Policy {
	d, ok := dst.(*LFU)
	if !ok || d == c {
		d = &LFU{}
	}
	c.pc.copyInto(&d.pc)
	d.freqs = copyFreqs(d.freqs, c.freqs)
	return d
}

var _ Policy = (*LFU)(nil)

// PerfectLFU evicts by all-time access frequency: counts survive eviction,
// which is the "perfect-LFU" policy the paper's §4.1 take-away suggests for
// popularity-heavy workloads (after Breslau et al.).
type PerfectLFU struct {
	pc    priorityCache
	freqs map[uint64]float64 // persists across evictions
}

// NewPerfectLFU returns a perfect-LFU policy with the given byte capacity.
func NewPerfectLFU(capacity int64) *PerfectLFU {
	return &PerfectLFU{pc: newPriorityCache(capacity), freqs: make(map[uint64]float64)}
}

// Name implements Policy.
func (c *PerfectLFU) Name() string { return "perfect-lfu" }

// Get implements Policy.
func (c *PerfectLFU) Get(key uint64) bool {
	c.freqs[key]++
	if !c.pc.contains(key) {
		return false
	}
	c.pc.setPriority(key, c.freqs[key])
	return true
}

// Put implements Policy.
func (c *PerfectLFU) Put(key uint64, size int64) {
	if c.freqs[key] == 0 {
		c.freqs[key] = 1
	}
	c.pc.insert(key, size, c.freqs[key])
}

// Contains implements Policy.
func (c *PerfectLFU) Contains(key uint64) bool { return c.pc.contains(key) }

// Remove implements Policy.
func (c *PerfectLFU) Remove(key uint64) { c.pc.remove(key) }

// Len implements Policy.
func (c *PerfectLFU) Len() int { return len(c.pc.items) }

// Size implements Policy.
func (c *PerfectLFU) Size() int64 { return c.pc.size }

// Capacity implements Policy.
func (c *PerfectLFU) Capacity() int64 { return c.pc.capacity }

// Resize implements Policy; all-time frequency counts survive, as they
// do for ordinary evictions.
func (c *PerfectLFU) Resize(capacity int64) { c.pc.resize(capacity) }

// CopyInto implements Policy; the all-time counters of evicted keys are
// copied too.
func (c *PerfectLFU) CopyInto(dst Policy) Policy {
	d, ok := dst.(*PerfectLFU)
	if !ok || d == c {
		d = &PerfectLFU{}
	}
	c.pc.copyInto(&d.pc)
	d.freqs = copyFreqs(d.freqs, c.freqs)
	return d
}

var _ Policy = (*PerfectLFU)(nil)
