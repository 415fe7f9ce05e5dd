package cache

// Level identifies where a lookup was satisfied in the multi-level cache.
type Level int

// Lookup outcomes, ordered fastest to slowest.
const (
	LevelRAM  Level = iota // served from main memory
	LevelDisk              // served from local disk (incurs the read/retry delay)
	LevelMiss              // not resident; must be fetched from the backend
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelRAM:
		return "ram"
	case LevelDisk:
		return "disk"
	case LevelMiss:
		return "miss"
	}
	return "unknown"
}

// MultiLevel composes a small RAM cache over a large disk cache, matching
// the ATS layout the paper describes ("multi-level ... between the main
// memory and the local disk ... with an LRU replacement policy"). A disk
// hit promotes the object into RAM; a backend fill writes both levels.
type MultiLevel struct {
	RAM  Policy
	Disk Policy

	RAMStats  Stats
	DiskStats Stats
}

// NewMultiLevel builds a two-level cache with the given policies.
func NewMultiLevel(ram, disk Policy) *MultiLevel {
	return &MultiLevel{RAM: ram, Disk: disk}
}

// NewLRUMultiLevel builds the ATS default: LRU at both levels.
func NewLRUMultiLevel(ramBytes, diskBytes int64) *MultiLevel {
	return NewMultiLevel(NewLRU(ramBytes), NewLRU(diskBytes))
}

// Lookup finds key, records per-level statistics, performs the disk→RAM
// promotion, and returns where the object was found. size is used for the
// promotion insert.
func (m *MultiLevel) Lookup(key uint64, size int64) Level {
	if m.RAM.Get(key) {
		m.RAMStats.Record(true)
		return LevelRAM
	}
	m.RAMStats.Record(false)
	if m.Disk.Get(key) {
		m.DiskStats.Record(true)
		m.RAM.Put(key, size) // promote
		return LevelDisk
	}
	m.DiskStats.Record(false)
	return LevelMiss
}

// Insert admits a backend-fetched object into both levels.
func (m *MultiLevel) Insert(key uint64, size int64) {
	m.Disk.Put(key, size)
	m.RAM.Put(key, size)
}

// Contains reports residency at either level without side effects.
func (m *MultiLevel) Contains(key uint64) bool {
	return m.RAM.Contains(key) || m.Disk.Contains(key)
}

// CopyInto returns a deep copy of m — both levels and their statistics —
// reusing dst's level storage where its policies match m's (see
// Policy.CopyInto). dst may be nil; the caller must use the returned
// cache rather than dst afterwards.
func (m *MultiLevel) CopyInto(dst *MultiLevel) *MultiLevel {
	if dst == nil || dst == m {
		dst = &MultiLevel{}
	}
	dst.RAM = m.RAM.CopyInto(dst.RAM)
	dst.Disk = m.Disk.CopyInto(dst.Disk)
	dst.RAMStats, dst.DiskStats = m.RAMStats, m.DiskStats
	return dst
}

// Resize changes both levels' capacities (shrinking evicts in each
// level's policy order). Timed cache-degradation phases use it to shrink
// a serving cache mid-campaign and restore it afterwards.
func (m *MultiLevel) Resize(ramBytes, diskBytes int64) {
	m.RAM.Resize(ramBytes)
	m.Disk.Resize(diskBytes)
}

// OverallMissRatio returns the fraction of lookups that reached the backend.
func (m *MultiLevel) OverallMissRatio() float64 {
	if m.RAMStats.Requests() == 0 {
		return 0
	}
	return float64(m.DiskStats.Misses) / float64(m.RAMStats.Requests())
}
