package cache

// GreedyDual implements the GreedyDual-Size family of policies (Cao &
// Irani): each resident object carries priority L + f(frequency) * cost /
// size, where L inflates to the priority of the last evicted object, aging
// out stale entries without explicit timestamps. With cost=1 and no
// frequency term this is GD-Size(1); with the frequency term it is GDSF.
// The paper's §4.1 take-away recommends GD-Size over ATS's default LRU for
// popularity-heavy video workloads.
type GreedyDual struct {
	pc        priorityCache
	l         float64
	useFreq   bool
	name      string
	freqs     map[uint64]float64
	costBytes float64 // constant per-object cost numerator (1 => size-aware)
}

// NewGDSize returns a GreedyDual-Size(1) policy: priority = L + 1/size.
// Small objects are cheap to re-fetch relative to the space they free, so
// large rarely-used objects are evicted first.
func NewGDSize(capacity int64) *GreedyDual {
	return &GreedyDual{
		pc:        newPriorityCache(capacity),
		name:      "gd-size",
		freqs:     make(map[uint64]float64),
		costBytes: 1,
	}
}

// NewGDSF returns a GreedyDual-Size-Frequency policy:
// priority = L + frequency/size.
func NewGDSF(capacity int64) *GreedyDual {
	return &GreedyDual{
		pc:        newPriorityCache(capacity),
		name:      "gdsf",
		useFreq:   true,
		freqs:     make(map[uint64]float64),
		costBytes: 1,
	}
}

// Name implements Policy.
func (c *GreedyDual) Name() string { return c.name }

func (c *GreedyDual) priorityFor(key uint64, size int64) float64 {
	f := 1.0
	if c.useFreq {
		f = c.freqs[key]
		if f < 1 {
			f = 1
		}
	}
	// Scale by 1e6 so priorities for megabyte-scale video chunks are not
	// lost to float underflow against the accumulating L term.
	return c.l + f*c.costBytes*1e6/float64(size)
}

// Get implements Policy.
func (c *GreedyDual) Get(key uint64) bool {
	e, ok := c.pc.items[key]
	if !ok {
		return false
	}
	c.freqs[key]++
	c.pc.setPriority(key, c.priorityFor(key, e.size))
	return true
}

// Put implements Policy.
func (c *GreedyDual) Put(key uint64, size int64) {
	if size <= 0 || size > c.pc.capacity {
		return
	}
	if c.freqs[key] == 0 {
		c.freqs[key] = 1
	}
	if evicted := c.pc.insert(key, size, c.priorityFor(key, size)); evicted > c.l {
		c.l = evicted
	}
	// GDSF uses in-cache frequency: counters die with eviction.
	for _, k := range c.pc.evicted {
		delete(c.freqs, k)
	}
}

// Contains implements Policy.
func (c *GreedyDual) Contains(key uint64) bool { return c.pc.contains(key) }

// Remove implements Policy.
func (c *GreedyDual) Remove(key uint64) {
	c.pc.remove(key)
	delete(c.freqs, key)
}

// Len implements Policy.
func (c *GreedyDual) Len() int { return len(c.pc.items) }

// Size implements Policy.
func (c *GreedyDual) Size() int64 { return c.pc.size }

// Capacity implements Policy.
func (c *GreedyDual) Capacity() int64 { return c.pc.capacity }

// Resize implements Policy. Resize evictions do not advance the aging
// term L (they are capacity events, not demand evictions); in-cache
// frequency counters die with the evicted entries as usual.
func (c *GreedyDual) Resize(capacity int64) {
	c.pc.resize(capacity)
	for _, k := range c.pc.evicted {
		delete(c.freqs, k)
	}
}

// CopyInto implements Policy, including the aging term L; a GD-Size
// destination may receive a GDSF copy and vice versa.
func (c *GreedyDual) CopyInto(dst Policy) Policy {
	d, ok := dst.(*GreedyDual)
	if !ok || d == c {
		d = &GreedyDual{}
	}
	c.pc.copyInto(&d.pc)
	d.freqs = copyFreqs(d.freqs, c.freqs)
	d.l, d.useFreq, d.name, d.costBytes = c.l, c.useFreq, c.name, c.costBytes
	return d
}

var _ Policy = (*GreedyDual)(nil)

// NewPolicy constructs a policy by name: "lru", "lfu", "perfect-lfu",
// "gd-size" or "gdsf". It returns false for an unknown name.
func NewPolicy(name string, capacity int64) (Policy, bool) {
	switch name {
	case "lru":
		return NewLRU(capacity), true
	case "lfu":
		return NewLFU(capacity), true
	case "perfect-lfu":
		return NewPerfectLFU(capacity), true
	case "gd-size":
		return NewGDSize(capacity), true
	case "gdsf":
		return NewGDSF(capacity), true
	}
	return nil, false
}
