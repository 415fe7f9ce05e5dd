package cache

import (
	"testing"

	"vidperf/internal/stats"
)

var allPolicies = []string{"lru", "lfu", "perfect-lfu", "gd-size", "gdsf"}

// drive applies n seeded Get/Put/Remove/Resize operations to p and
// returns one outcome record per operation: the Get result (or 0/1 for
// the other ops' Contains probe) followed by Len, Size and Capacity. Two
// caches in the same state produce identical records for the same seed,
// and any divergence in contents, eviction order or tie-breaking shows
// up as soon as an eviction or Get depends on it.
func drive(p Policy, seed uint64, n int) []int64 {
	r := stats.NewRand(seed)
	out := make([]int64, 0, 4*n)
	for i := 0; i < n; i++ {
		key := uint64(r.Intn(80))
		var res bool
		switch op := r.Intn(20); {
		case op < 8:
			res = p.Get(key)
		case op < 17:
			p.Put(key, int64(1+r.Intn(300)))
			res = p.Contains(key)
		case op < 19:
			p.Remove(key)
			res = p.Contains(key)
		default:
			p.Resize(int64(600 + r.Intn(1600)))
		}
		b := int64(0)
		if res {
			b = 1
		}
		out = append(out, b, int64(p.Len()), p.Size(), p.Capacity())
	}
	return out
}

func sameOutcomes(t *testing.T, what string, a, b []int64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d outcomes", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: outcome %d (op %d) differs: %d vs %d", what, i, i/4, a[i], b[i])
		}
	}
}

// TestCopyIntoParity: for every policy and every kind of destination —
// none, the wrong policy, and used caches of the same policy with a
// smaller and a larger capacity and resident set — the copy must behave
// exactly like its source under one seeded operation stream, and
// mutating the copy must leave the source's behaviour untouched (checked
// against a twin built by the same history).
func TestCopyIntoParity(t *testing.T) {
	const capacity = 1500
	for _, name := range allPolicies {
		build := func() Policy {
			p, _ := NewPolicy(name, capacity)
			drive(p, 1, 600)
			return p
		}
		used := func(capacity int64, seed uint64, ops int) Policy {
			p, _ := NewPolicy(name, capacity)
			drive(p, seed, ops)
			return p
		}
		other := "lru"
		if name == "lru" {
			other = "gdsf"
		}
		wrong, _ := NewPolicy(other, capacity)
		dsts := []struct {
			name string
			p    Policy
		}{
			{"nil", nil},
			{"wrong", wrong},
			{"smaller", used(300, 2, 50)},
			{"larger", used(1<<20, 3, 2000)},
		}
		for _, d := range dsts {
			dst := d.p
			t.Run(name+"/"+d.name, func(t *testing.T) {
				src, twin := build(), build()
				cp := src.CopyInto(dst)
				if cp == src {
					t.Fatal("CopyInto returned the source")
				}
				if cp.Name() != src.Name() || cp.Len() != src.Len() ||
					cp.Size() != src.Size() || cp.Capacity() != src.Capacity() {
					t.Fatalf("copy %s len=%d size=%d cap=%d, source %s len=%d size=%d cap=%d",
						cp.Name(), cp.Len(), cp.Size(), cp.Capacity(),
						src.Name(), src.Len(), src.Size(), src.Capacity())
				}
				// The copy diverges from nothing: same stream, same outcomes.
				sameOutcomes(t, "copy vs twin", drive(cp, 9, 1500), drive(twin, 9, 1500))
				// The copy's mutations above must not have reached src:
				// it still behaves like a fresh twin.
				sameOutcomes(t, "source vs twin", drive(src, 9, 1500), drive(build(), 9, 1500))
			})
		}
	}
}

// TestCopyIntoSelf: copying a cache into itself must not alias it.
func TestCopyIntoSelf(t *testing.T) {
	for _, name := range allPolicies {
		p, _ := NewPolicy(name, 1000)
		drive(p, 4, 300)
		cp := p.CopyInto(p)
		if cp == p {
			t.Fatalf("%s: CopyInto(self) returned the receiver", name)
		}
		twin, _ := NewPolicy(name, 1000)
		drive(twin, 4, 300)
		sameOutcomes(t, name, drive(cp, 5, 500), drive(twin, 5, 500))
		drive(cp, 6, 500) // keep mutating the copy only
		twin2, _ := NewPolicy(name, 1000)
		drive(twin2, 4, 300)
		sameOutcomes(t, name+" source", drive(p, 5, 500), drive(twin2, 5, 500))
	}
}

// TestMultiLevelCopyInto: a multi-level copy carries both levels and the
// per-level statistics, reuses a used destination, and stays
// independent of its source.
func TestMultiLevelCopyInto(t *testing.T) {
	for _, name := range allPolicies {
		mk := func(ram, disk int64) *MultiLevel {
			r, _ := NewPolicy(name, ram)
			d, _ := NewPolicy(name, disk)
			return NewMultiLevel(r, d)
		}
		history := func(m *MultiLevel, seed uint64) {
			r := stats.NewRand(seed)
			for i := 0; i < 800; i++ {
				key := uint64(r.Intn(60))
				if m.Lookup(key, 100) == LevelMiss {
					m.Insert(key, int64(50+r.Intn(150)))
				}
			}
		}
		src := mk(800, 3000)
		history(src, 7)
		for _, dst := range []*MultiLevel{nil, mk(100, 100), mk(1<<20, 1<<20)} {
			if dst != nil {
				history(dst, 8)
			}
			cp := src.CopyInto(dst)
			if cp == src || cp.RAM == src.RAM || cp.Disk == src.Disk {
				t.Fatalf("%s: copy aliases its source", name)
			}
			if cp.RAMStats != src.RAMStats || cp.DiskStats != src.DiskStats {
				t.Fatalf("%s: stats not copied", name)
			}
			twin := mk(800, 3000)
			history(twin, 7)
			history(cp, 11)
			history(twin, 11)
			if cp.RAMStats != twin.RAMStats || cp.DiskStats != twin.DiskStats {
				t.Fatalf("%s: copy diverged from twin: %+v/%+v vs %+v/%+v", name,
					cp.RAMStats, cp.DiskStats, twin.RAMStats, twin.DiskStats)
			}
		}
		ref := mk(800, 3000)
		history(ref, 7)
		if src.RAMStats != ref.RAMStats || src.RAM.Size() != ref.RAM.Size() || src.Disk.Len() != ref.Disk.Len() {
			t.Fatalf("%s: mutating copies changed the source", name)
		}
	}
}
