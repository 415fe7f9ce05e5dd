// Package cdn models the Apache-Traffic-Server-like caching proxy fleet
// the paper instruments: a FIFO request queue drained by a worker pool, a
// multi-level RAM+disk cache, the 10 ms asynchronous open-read-retry timer
// (the root cause of Fig. 5's bimodal Dread), backend fetches on misses,
// and the cache-focused client-to-server mapping that produces the
// load-performance paradox of §4.1.
//
// Every request is served with a per-chunk latency breakdown —
// Dwait, Dopen, Dread, D_BE — matching the paper's Table 2 CDN
// instrumentation.
package cdn

import (
	"math"

	"vidperf/internal/backend"
	"vidperf/internal/cache"
	"vidperf/internal/sim"
	"vidperf/internal/stats"
)

// Config parameterizes one CDN server. Zero fields take defaults
// calibrated to the paper's Fig. 5 (median hit 2 ms, miss ~80 ms,
// ~35% of chunks hitting the 10 ms retry timer).
type Config struct {
	RAMBytes  int64  // main-memory cache size (default 2 GiB)
	DiskBytes int64  // disk cache size (default 64 GiB)
	Policy    string // cache policy at both levels (default "lru")

	Workers     int     // threadpool size (default 16)
	OpenRetryMS float64 // ATS open-read retry timer (default 10 ms)

	RAMReadMedianMS  float64 // in-memory first-byte read (default 0.6 ms)
	DiskSeekMedianMS float64 // disk seek+open (default 4 ms)
	DiskReadMBps     float64 // disk sequential rate (default 400 MB/s)
	OpenMedianMS     float64 // header parse + cache-open attempt (default 0.5 ms)

	// Prefetch is the number of subsequent chunks fetched from the backend
	// after a miss (§4.1 take-away; default 0 = off).
	Prefetch int
	// PinFirstChunks serves chunk 0 of every video from memory
	// unconditionally (§4.3 take-away: cache the first chunk of every
	// video to cut startup delay).
	PinFirstChunks bool
}

func (c Config) withDefaults() Config {
	if c.RAMBytes == 0 {
		c.RAMBytes = 2 << 30
	}
	if c.DiskBytes == 0 {
		c.DiskBytes = 64 << 30
	}
	if c.Policy == "" {
		c.Policy = "lru"
	}
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.OpenRetryMS == 0 {
		c.OpenRetryMS = 10
	}
	if c.RAMReadMedianMS == 0 {
		c.RAMReadMedianMS = 0.6
	}
	if c.DiskSeekMedianMS == 0 {
		c.DiskSeekMedianMS = 4
	}
	if c.DiskReadMBps == 0 {
		c.DiskReadMBps = 400
	}
	if c.OpenMedianMS == 0 {
		c.OpenMedianMS = 0.5
	}
	return c
}

// Request identifies one chunk fetch arriving at a server.
type Request struct {
	Key        uint64
	SizeBytes  int64
	VideoID    int
	ChunkIndex int
	// Next lists the session's subsequent chunks (key+size), used only
	// when prefetching is enabled.
	Next []NextChunk
	// BackendFactor scales the backend latency D_BE of a miss on this
	// request (timeline brownout phases; 0 means unscaled). The latency
	// sample itself is drawn as usual, so a factor of 1 is byte-identical
	// to no factor at all.
	BackendFactor float64
}

// backendFactor resolves the request's effective D_BE multiplier.
func (r Request) backendFactor() float64 {
	if r.BackendFactor <= 0 {
		return 1
	}
	return r.BackendFactor
}

// NextChunk is a prefetch candidate.
type NextChunk struct {
	Key       uint64
	SizeBytes int64
}

// ServeResult is the per-chunk CDN-side latency breakdown (Table 2).
type ServeResult struct {
	DwaitMS float64 // FIFO queue wait before a worker picked the request
	DopenMS float64 // header read until first cache-open attempt
	DreadMS float64 // first-byte read incl. retry timer and disk/socket work
	DBEms   float64 // backend latency (0 on hits)

	Level      cache.Level // where the chunk was found
	RetryTimer bool        // the 10 ms open-retry fired
	Pinned     bool        // served from the pinned first-chunk store
}

// DCDNms is the CDN service latency D_CDN = Dwait + Dopen + Dread.
func (sr ServeResult) DCDNms() float64 { return sr.DwaitMS + sr.DopenMS + sr.DreadMS }

// ServerLatencyMS is the total server-side contribution to first-byte
// delay: D_CDN + D_BE.
func (sr ServeResult) ServerLatencyMS() float64 { return sr.DCDNms() + sr.DBEms }

// CacheHit reports whether the chunk was served without a backend fetch.
func (sr ServeResult) CacheHit() bool { return sr.Level != cache.LevelMiss }

// Server is one caching proxy.
type Server struct {
	ID    int
	PoPID int

	cfg     Config
	cache   *cache.MultiLevel
	backend *backend.Service
	r       *stats.Rand

	busy  int
	queue []pendingReq

	// release frees a worker and starts the next queued request. It is
	// bound to releaseEng once, so finishing a request schedules it
	// without allocating a closure.
	release    sim.Event
	releaseEng *sim.Engine

	// Aggregate metrics for the load/performance analysis.
	Served      int64
	BytesServed int64
	RetryHits   int64
	BusyMS      float64
	SumDCDNms   float64
}

type pendingReq struct {
	req       Request
	arrivedMS float64
	res       *ServeResult
	done      sim.Event
}

// NewServer builds a server with its own cache and backend sampler.
func NewServer(id, popID int, cfg Config, be *backend.Service, r *stats.Rand) *Server {
	cfg = cfg.withDefaults()
	ram, ok := cache.NewPolicy(cfg.Policy, cfg.RAMBytes)
	if !ok {
		panic("cdn: unknown cache policy " + cfg.Policy)
	}
	disk, _ := cache.NewPolicy(cfg.Policy, cfg.DiskBytes)
	return &Server{
		ID:      id,
		PoPID:   popID,
		cfg:     cfg,
		cache:   cache.NewMultiLevel(ram, disk),
		backend: be,
		r:       r,
	}
}

// Cache exposes the server's cache for inspection and warmup.
func (s *Server) Cache() *cache.MultiLevel { return s.cache }

// SetCache replaces the server's cache, e.g. with a copy of a warm image
// built on another server of the same configuration. Call it before the
// server serves its first request.
func (s *Server) SetCache(c *cache.MultiLevel) { s.cache = c }

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// MeanDCDNms returns the server's average D_CDN over all served requests.
func (s *Server) MeanDCDNms() float64 {
	if s.Served == 0 {
		return math.NaN()
	}
	return s.SumDCDNms / float64(s.Served)
}

// Serve schedules the handling of req on the simulation engine and runs
// done at the moment the chunk's first byte is written to the socket. The
// latency breakdown is stored in *res once a worker has handled the
// request, which is no later than done runs; the caller must leave *res
// alone until then. A requester with one request in flight binds done
// and res once, so serving a chunk allocates no closure.
func (s *Server) Serve(eng *sim.Engine, req Request, res *ServeResult, done sim.Event) {
	p := pendingReq{req: req, arrivedMS: eng.Now(), res: res, done: done}
	if s.busy < s.cfg.Workers {
		s.start(eng, p)
	} else {
		s.queue = append(s.queue, p)
	}
}

// start runs a request on a free worker at the current engine time.
func (s *Server) start(eng *sim.Engine, p pendingReq) {
	s.busy++
	// Queue wait: time in FIFO plus a small accept/dispatch overhead
	// (the paper observes Dwait < 1 ms for most chunks). The dispatch
	// overhead occupies the worker, so it is scheduled below.
	dispatch := s.r.Uniform(0.02, 0.4)
	res := ServeResult{
		DwaitMS: (eng.Now() - p.arrivedMS) + dispatch,
		DopenMS: s.r.LogNormal(math.Log(s.cfg.OpenMedianMS), 0.4),
	}

	if s.cfg.PinFirstChunks && p.req.ChunkIndex == 0 {
		res.Level = cache.LevelRAM
		res.Pinned = true
		res.DreadMS = s.ramReadMS()
		s.finish(eng, p, res, dispatch)
		return
	}

	res.Level = s.cache.Lookup(p.req.Key, p.req.SizeBytes)
	switch res.Level {
	case cache.LevelRAM:
		res.DreadMS = s.ramReadMS()
	case cache.LevelDisk:
		// Not in memory: the first open attempt fails and the async
		// retry timer fires before the disk read completes.
		res.RetryTimer = true
		s.RetryHits++
		res.DreadMS = s.cfg.OpenRetryMS + s.diskReadMS(p.req.SizeBytes)
	case cache.LevelMiss:
		res.RetryTimer = true
		s.RetryHits++
		res.DBEms = s.backend.FetchLatencyMS() * p.req.backendFactor()
		// Local work: retry timer + writing the backend's first bytes
		// through to the socket (backend fetch and delivery are
		// pipelined; the wait itself is accounted in D_BE).
		res.DreadMS = s.cfg.OpenRetryMS + s.r.Uniform(0.2, 1.0)
		key, size := p.req.Key, p.req.SizeBytes
		eng.After(res.DBEms, func(float64) {
			s.cache.Insert(key, size)
		})
		s.prefetch(eng, p.req)
	}
	s.finish(eng, p, res, dispatch)
}

// finish accounts for worker occupancy and schedules the completion
// callback at first-byte time.
func (s *Server) finish(eng *sim.Engine, p pendingReq, res ServeResult, dispatch float64) {
	localWork := dispatch + res.DopenMS + res.DreadMS
	firstByteDelay := localWork + res.DBEms

	s.Served++
	s.BytesServed += p.req.SizeBytes
	s.BusyMS += localWork
	s.SumDCDNms += res.DCDNms()

	// The worker is event-driven: it is released after the local work;
	// waiting on the backend does not occupy a thread.
	eng.After(localWork, s.releaseOn(eng))
	*p.res = res
	eng.After(firstByteDelay, p.done)
}

// releaseOn returns the worker-release event bound to eng, binding it on
// the first request the server handles on that engine.
func (s *Server) releaseOn(eng *sim.Engine) sim.Event {
	if s.releaseEng != eng {
		s.releaseEng = eng
		s.release = func(float64) {
			s.busy--
			if len(s.queue) > 0 {
				next := s.queue[0]
				s.queue = s.queue[1:]
				s.start(eng, next)
			}
		}
	}
	return s.release
}

// prefetch warms the cache with the session's subsequent chunks after a
// miss (ablation A3). Prefetched fills arrive one backend latency later.
func (s *Server) prefetch(eng *sim.Engine, req Request) {
	n := s.cfg.Prefetch
	for i := 0; i < n && i < len(req.Next); i++ {
		nc := req.Next[i]
		if s.cache.Contains(nc.Key) {
			continue
		}
		lat := s.backend.FetchLatencyMS() * req.backendFactor()
		key, size := nc.Key, nc.SizeBytes
		eng.After(lat, func(float64) { s.cache.Insert(key, size) })
	}
}

func (s *Server) ramReadMS() float64 {
	return s.r.LogNormal(math.Log(s.cfg.RAMReadMedianMS), 0.5)
}

func (s *Server) diskReadMS(size int64) float64 {
	seek := s.r.LogNormal(math.Log(s.cfg.DiskSeekMedianMS), 0.6)
	transfer := float64(size) / (s.cfg.DiskReadMBps * 1000) // MB/s -> bytes/ms
	return seek + transfer
}
