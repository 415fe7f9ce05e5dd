package session

import (
	"testing"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/stats"
	"vidperf/internal/workload"
)

// warmSlot builds the one-server slot fleet a shard runs on and warms it
// the way the runner warms a slot's image.
func warmSlot(cfg cdn.FleetConfig, seed uint64, cat *catalog.Catalog, pop, slot int) *cdn.Server {
	fleet := cdn.NewSlotFleet(cfg, seed, pop, slot)
	WarmPoP(fleet, cat, pop)
	return fleet.PoPServers(pop)[slot]
}

// warmServerFor warms and returns the slot a video's session 0 maps to.
func warmServerFor(cfg cdn.FleetConfig, seed uint64, cat *catalog.Catalog, pop int, v *catalog.Video) *cdn.Server {
	return warmSlot(cfg, seed, cat, pop, cdn.SlotFor(cfg.WithDefaults(), v.ID, v.Rank, 0))
}

func TestWarmPoPPopulatesCaches(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 2, ServersPerPoP: 3}
	cat := catalog.New(catalog.Config{NumVideos: 200, DurationMedian: 60}, stats.NewRand(1))

	// Every server with mapped content must hold bytes.
	for pop := 0; pop < 2; pop++ {
		for slot := 0; slot < 3; slot++ {
			if srv := warmSlot(cfg, 1, cat, pop, slot); srv.Cache().Disk.Size() == 0 {
				t.Errorf("pop %d slot %d not warmed", pop, slot)
			}
		}
	}

	// The most popular video's mid-ladder chunk must be resident on its
	// mapped server in every PoP; a cold-tail video must not be.
	for pop := 0; pop < 2; pop++ {
		v0 := &cat.Videos[0]
		key := catalog.ChunkKey(v0.ID, 0, 1750)
		if !warmServerFor(cfg, 1, cat, pop, v0).Cache().Contains(key) {
			t.Errorf("pop %d: popular chunk not warmed", pop)
		}
		cold := &cat.Videos[len(cat.Videos)-1] // rank beyond the 95% cold cut
		coldKey := catalog.ChunkKey(cold.ID, 0, 1750)
		if warmServerFor(cfg, 1, cat, pop, cold).Cache().Contains(coldKey) {
			t.Errorf("pop %d: cold-tail chunk unexpectedly warmed", pop)
		}
	}
}

func TestWarmPoPTopQuartileGetsAllRungs(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2}
	cat := catalog.New(catalog.Config{NumVideos: 100, DurationMedian: 60}, stats.NewRand(2))

	v0 := &cat.Videos[0] // top quartile: all rungs warmed
	srv := warmServerFor(cfg, 2, cat, 0, v0)
	for _, br := range cat.Bitrates {
		if !srv.Cache().Contains(catalog.ChunkKey(v0.ID, 1, br)) {
			t.Errorf("top video missing rung %d", br)
		}
	}
	// A mid-catalog (below quartile, above cold cut) video: low rungs are
	// cold except the startup rung on early chunks.
	vMid := &cat.Videos[60]
	srvMid := warmServerFor(cfg, 2, cat, 0, vMid)
	if srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 5, 235)) {
		t.Error("mid video's 235 kbps rung should be cold")
	}
	if !srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 0, 375)) {
		t.Error("mid video's startup rung should be warmed for chunk 0")
	}
	if !srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 5, 1750)) {
		t.Error("mid video's 1750 kbps rung should be warmed")
	}
}

func TestWarmPoPPartitionedSpreadsPopular(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 4, PartitionTopRanks: 10}
	cat := catalog.New(catalog.Config{NumVideos: 100, DurationMedian: 60}, stats.NewRand(3))

	// Partitioned top titles must be resident on every server of the PoP.
	key := catalog.ChunkKey(cat.Videos[0].ID, 0, 1750)
	for slot := 0; slot < 4; slot++ {
		if !warmSlot(cfg, 3, cat, 0, slot).Cache().Contains(key) {
			t.Errorf("slot %d missing partitioned popular chunk", slot)
		}
	}
}

// TestWarmImageIndependentOfPoP pins what lets the runner warm a slot
// once and copy the image into every PoP's shard: the same slot warmed
// in different PoPs (different seeds' servers, same catalog and config)
// holds the same contents in the same eviction order, for every policy.
func TestWarmImageIndependentOfPoP(t *testing.T) {
	cat := catalog.New(catalog.Config{NumVideos: 400, DurationMedian: 60}, stats.NewRand(4))
	for _, policy := range append([]string{"lru"}, nonLRUPolicies...) {
		cfg := cdn.FleetConfig{NumPoPs: 3, ServersPerPoP: 3, PartitionTopRanks: 20,
			Server: cdn.Config{Policy: policy, RAMBytes: 16 << 20, DiskBytes: 128 << 20}}
		for slot := 0; slot < 3; slot++ {
			a := warmSlot(cfg, 7, cat, 0, slot).Cache()
			b := warmSlot(cfg, 8, cat, 2, slot).Cache()
			// Identical lookup streams must see identical outcomes.
			r := stats.NewRand(uint64(slot))
			for i := 0; i < 3000; i++ {
				v := &cat.Videos[r.Intn(len(cat.Videos))]
				key := catalog.ChunkKey(v.ID, r.Intn(v.NumChunks), cat.Bitrates[r.Intn(len(cat.Bitrates))])
				la, lb := a.Lookup(key, 400_000), b.Lookup(key, 400_000)
				if la != lb {
					t.Fatalf("%s slot %d lookup %d: PoP 0 %v, PoP 2 %v", policy, slot, i, la, lb)
				}
				if la == cache.LevelMiss {
					a.Insert(key, 400_000)
					b.Insert(key, 400_000)
				}
			}
		}
	}
}

func TestColdStartRaisesMissRate(t *testing.T) {
	base := workload.Scenario{
		Seed: 5, NumSessions: 800, NumPrefixes: 200,
		Catalog: catalog.Config{NumVideos: 800},
	}
	warm := mustRun(t, base)
	cold := base
	cold.ColdStart = true
	coldDS := mustRun(t, cold)

	missRate := func(ds *core.Dataset) float64 {
		miss := 0
		for i := range ds.Chunks {
			if !ds.Chunks[i].CacheHit {
				miss++
			}
		}
		return float64(miss) / float64(len(ds.Chunks))
	}
	w, c := missRate(warm), missRate(coldDS)
	if c < 3*w {
		t.Errorf("cold start miss rate %.3f not ≫ warm %.3f", c, w)
	}
	if w > 0.25 {
		t.Errorf("warm miss rate %.3f too high", w)
	}
}
