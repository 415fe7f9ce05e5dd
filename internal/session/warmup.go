package session

import (
	"math"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
)

// WarmPoP pre-populates one PoP's caches with the catalog content that
// maps to its built servers, in ascending popularity order (least popular
// first) so LRU recency ends up matching popularity. This simulates a CDN
// that has been serving the catalog for weeks — the regime the paper
// measures (average miss rate ~2%) — without paying for millions of
// warmup sessions. Warming draws no randomness, and a server's warm state
// depends only on (catalog, fleet config, slot): cdn.SlotFor ignores the
// PoP, so the same slot warms to the same image in every PoP, whether it
// sits in a full fleet or in a single-slot fleet. The session runner
// relies on that: it calls WarmPoP once per slot task on a
// cdn.NewSlotFleet and runs each of the slot's PoP shards on a copy of
// the resulting cache (cache.MultiLevel.CopyInto).
//
// Warming covers the ladder rungs sessions actually converge to (>= 750
// kbps for all titles, every rung for the most popular quartile) plus the
// conservative startup rung for each title's first chunks. Cold rungs on
// cold titles are exactly the requests that miss — the paper's unpopular-
// content findings need that residue.
//
// For LRU levels (the default policy) warming exploits the insert
// sequence's structure instead of replaying it: the keys are unique and
// never re-accessed, so the final cache state is exactly the maximal
// suffix of the eligible inserts that fits the capacity, in insertion
// order. A first reverse pass sizes that suffix per (server, level); a
// second forward pass inserts only the survivors — no evictions, no
// arena churn, and the arena and index are pre-sized to their final
// cardinality. Non-LRU levels fall back to inserting everything, since
// their eviction order is not a suffix rule.
func WarmPoP(fleet *cdn.Fleet, cat *catalog.Catalog, pop int) {
	servers := fleet.PoPServers(pop)
	if len(cat.Bitrates) == 0 || servers == nil {
		return
	}
	p := newWarmPlan(servers)
	cfg := fleet.Config()
	p.walk(cat, cfg, true)  // size the surviving suffix per (server, level)
	p.reserve()             // pre-size arenas and indexes to final cardinality
	p.walk(cat, cfg, false) // insert the survivors in original recency order
}

// warmPlan carries the per-slot, per-level suffix bookkeeping between the
// two warming passes. All slices are indexed by server slot; slots whose
// server is nil (owned by other shards) are never visited.
type warmPlan struct {
	servers []*cdn.Server

	// Per-slot LRU handles (nil when the level runs a non-LRU policy and
	// takes the insert-everything fallback).
	ram, disk []*cache.LRU

	// Reverse-pass state: remaining byte budget, survivor count, and the
	// reverse visit index of the first eligible insert that did not fit
	// (everything before it in insert order is evicted by the end, so the
	// forward pass skips it). stop stays MaxInt when everything fits.
	remRAM, remDisk   []int64
	nRAM, nDisk       []int
	stopRAM, stopDisk []int
	doneRAM, doneDisk []bool

	cnt []int // reverse-pass visits per slot; the forward pass counts down
	fwd []int // forward-pass visits per slot
}

func newWarmPlan(servers []*cdn.Server) *warmPlan {
	n := len(servers)
	p := &warmPlan{
		servers: servers,
		ram:     make([]*cache.LRU, n), disk: make([]*cache.LRU, n),
		remRAM: make([]int64, n), remDisk: make([]int64, n),
		nRAM: make([]int, n), nDisk: make([]int, n),
		stopRAM: make([]int, n), stopDisk: make([]int, n),
		doneRAM: make([]bool, n), doneDisk: make([]bool, n),
		cnt: make([]int, n), fwd: make([]int, n),
	}
	for slot, srv := range servers {
		if srv == nil {
			continue
		}
		ml := srv.Cache()
		if lru, ok := ml.RAM.(*cache.LRU); ok {
			p.ram[slot] = lru
			p.remRAM[slot] = lru.Capacity()
		}
		if lru, ok := ml.Disk.(*cache.LRU); ok {
			p.disk[slot] = lru
			p.remDisk[slot] = lru.Capacity()
		}
		p.stopRAM[slot] = math.MaxInt
		p.stopDisk[slot] = math.MaxInt
	}
	return p
}

// reserve pre-sizes every LRU level for its survivor count, plus
// headroom for the run itself: backend fills keep inserting after warmup
// (RAM churns at capacity, an under-filled disk grows), and reserving
// exactly the survivor count would make the first such insert re-double
// the arena it just sized.
func (p *warmPlan) reserve() {
	headroom := func(n int) int { return n + n/16 + 64 }
	for slot := range p.servers {
		if p.ram[slot] != nil {
			p.ram[slot].Reserve(headroom(p.nRAM[slot]))
		}
		if p.disk[slot] != nil {
			p.disk[slot].Reserve(headroom(p.nDisk[slot]))
		}
	}
}

// visit processes one (slot, key, size) warm insert. In the reverse pass
// it plays the greedy maximal-suffix admission per LRU level; in the
// forward pass it performs the surviving inserts (and, for non-LRU
// levels, every insert) in the original order, so recency matches what a
// full replay would leave behind.
func (p *warmPlan) visit(reverse bool, slot int, key uint64, size int64) {
	if reverse {
		i := p.cnt[slot]
		p.cnt[slot]++
		if lru := p.ram[slot]; lru != nil && size > 0 && size <= lru.Capacity() {
			if !p.doneRAM[slot] {
				if size <= p.remRAM[slot] {
					p.remRAM[slot] -= size
					p.nRAM[slot]++
				} else {
					p.doneRAM[slot] = true
					p.stopRAM[slot] = i
				}
			}
		}
		if lru := p.disk[slot]; lru != nil && size > 0 && size <= lru.Capacity() {
			if !p.doneDisk[slot] {
				if size <= p.remDisk[slot] {
					p.remDisk[slot] -= size
					p.nDisk[slot]++
				} else {
					p.doneDisk[slot] = true
					p.stopDisk[slot] = i
				}
			}
		}
		return
	}
	f := p.fwd[slot]
	p.fwd[slot]++
	rev := p.cnt[slot] - 1 - f
	ml := p.servers[slot].Cache()
	// Mirror MultiLevel.Insert's disk-then-RAM order.
	if lru := p.disk[slot]; lru != nil {
		if rev < p.stopDisk[slot] {
			lru.Put(key, size)
		}
	} else {
		ml.Disk.Put(key, size)
	}
	if lru := p.ram[slot]; lru != nil {
		if rev < p.stopRAM[slot] {
			lru.Put(key, size)
		}
	} else {
		ml.RAM.Put(key, size)
	}
}

// walk enumerates the warm insert sequence — forward in the order WarmPoP
// documents, or exactly reversed — and feeds each (slot, key, size) to
// visit. Both passes must enumerate the identical per-slot sequences for
// the suffix arithmetic to line up, so all policy filters live here.
// Videos pinned to a slot whose server is not built are skipped at the
// rank level, which is what keeps a single-slot shard's warmup cost
// proportional to its own share of the catalog.
func (p *warmPlan) walk(cat *catalog.Catalog, cfg cdn.FleetConfig, reverse bool) {
	startRung := cat.Bitrates[0]
	if len(cat.Bitrates) > 1 {
		startRung = cat.Bitrates[1]
	}
	topQuartile := len(cat.Videos) / 4
	// The deep tail (bottom 5% of ranks, ~2% of requests — matching the
	// paper's ~2% average miss rate) was never requested in the cache's
	// history: those titles are fully cold everywhere, giving the paper's
	// persistent all-miss sessions (§4.1 finding 2) and Fig. 6a's rank
	// gradient.
	coldTail := len(cat.Videos) * 95 / 100

	for i := 0; i < coldTail; i++ {
		rank := coldTail - 1 - i
		if reverse {
			rank = i
		}
		v := &cat.Videos[rank]
		partitioned := cfg.PartitionTopRanks > 0 && rank < cfg.PartitionTopRanks
		single := -1
		if !partitioned {
			single = cdn.SlotFor(cfg, v.ID, rank, 0)
			if p.servers[single] == nil {
				continue
			}
		}
		warmAll := rank < topQuartile
		for c := 0; c < v.NumChunks; c++ {
			ci := c
			if reverse {
				ci = v.NumChunks - 1 - c
			}
			dur := cat.ChunkDurationSec(v, ci)
			for b := range cat.Bitrates {
				bi := b
				if reverse {
					bi = len(cat.Bitrates) - 1 - b
				}
				br := cat.Bitrates[bi]
				if br < 750 && !warmAll && !(ci < 3 && br == startRung) {
					continue
				}
				key := catalog.ChunkKey(v.ID, ci, br)
				size := catalog.ChunkSizeBytes(br, dur)
				if partitioned {
					for slot, srv := range p.servers {
						if srv != nil {
							p.visit(reverse, slot, key, size)
						}
					}
				} else {
					p.visit(reverse, single, key, size)
				}
			}
		}
	}
}
