package telemetry

import (
	"math"
	"sync"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/timeline"
)

// Metric names of the quantile sketches an Accumulator maintains — one
// per distribution the §4–§5 analyses consume.
const (
	MetricStartupMS    = "startup_ms"     // per-session startup delay (started sessions only)
	MetricRebufferRate = "rebuffer_rate"  // per-session fraction of time stalled
	MetricDFBMS        = "dfb_ms"         // per-chunk first-byte delay
	MetricDLBMS        = "dlb_ms"         // per-chunk last-byte delay
	MetricSRTTMS       = "srtt_ms"        // per-chunk kernel SRTT snapshot
	MetricServerMS     = "server_ms"      // per-chunk D_CDN + D_BE
	MetricServerHitMS  = "server_hit_ms"  // server latency, cache hits
	MetricServerMissMS = "server_miss_ms" // server latency, cache misses
	MetricDwaitMS      = "dwait_ms"       // Fig. 5 breakdown components
	MetricDopenMS      = "dopen_ms"
	MetricDreadMS      = "dread_ms"
)

// metricNames lists every sketch in canonical order; merges iterate this
// slice (never a map) so the combined state is reproducible.
var metricNames = []string{
	MetricStartupMS, MetricRebufferRate, MetricDFBMS, MetricDLBMS,
	MetricSRTTMS, MetricServerMS, MetricServerHitMS, MetricServerMissMS,
	MetricDwaitMS, MetricDopenMS, MetricDreadMS,
}

// Counter names (see CounterSet for the dimensioned-key convention; the
// dimensions in use are pop, cache, bitrate, and org).
const (
	CounterSessions           = "sessions" // also the base of _pop= / _org= / _window= keys
	CounterSessionsNeverStart = "sessions_never_started"
	CounterChunks             = "chunks" // also the base of _pop= / _cache= / _bitrate= keys
	CounterChunksHit          = "chunks_hit"
	CounterChunksRetryTimer   = "chunks_retry_timer"
	// CounterSessionsUnwindowed counts sessions whose arrival fell
	// outside every timeline window — always zero when the windows span
	// the arrival window; non-zero breaks the -windows coverage check.
	CounterSessionsUnwindowed = "sessions_unwindowed"
)

// histogram shapes, shared by every accumulator so snapshots merge.
const (
	startupHistMaxMS = 20000
	startupHistBins  = 200
	rebufHistBins    = 100
)

// Accumulator folds finished sessions into the campaign's bounded-memory
// aggregates. It implements core.RecordSink; the sharded runner gives
// each PoP shard its own Accumulator, so no locking is needed on the
// record path.
type Accumulator struct {
	k        int
	sketches map[string]*QuantileSketch
	hists    map[string]*Histogram
	counters *CounterSet

	// The record path's per-chunk sketches and dimensioned counter keys,
	// resolved once so folding a chunk formats no key and looks up no
	// sketch by name.
	chunk                                                   chunkSketches
	sessionsPoP, sessionsOrg, chunksPoP, chunksHitPoP       keyMemo
	chunksCache, chunksBitrate, liveChannels, proxyEgresses keyMemo

	// Diagnosis mode (see diag.go): non-nil diag classifies every
	// consumed session; diagNames is the canonical order the per-label
	// sketches merge in, and diagSlots holds each label's counter key and
	// sketches.
	diag      *diagnose.Config
	diagNames []string
	diagSlots map[diagnose.Label]qoeSlot

	// Windowed mode (see windows.go): sessions are charged by arrival
	// time to these timeline windows; windowNames is the canonical order
	// the per-window sketches merge in; windowSlots holds each window's
	// keys and sketches, in the order of windows.
	windows     []timeline.Window
	windowNames []string
	windowSlots []windowSlot

	// Live mode (see live.go): join-time and live-edge-lag sketches plus
	// per-channel counters; liveNames is their canonical merge order.
	live      bool
	liveNames []string

	// Proxy mode (see proxy.go): proxied-vs-direct QoE sketches plus
	// per-egress counters; proxyNames is their canonical merge order.
	proxy      bool
	proxyNames []string
}

// chunkSketches are the sketches every chunk feeds.
type chunkSketches struct {
	dfb, dlb, srtt, server, serverHit, serverMiss, dwait, dopen, dread *QuantileSketch
}

// Config assembles an accumulator's optional modes next to its sketch
// parameter: per-session diagnosis (nil = off) and timeline-window
// attribution (nil = off). The zero value is a plain accumulator with
// the default sketch parameter.
type Config struct {
	// SketchK is the quantile-sketch compaction parameter (<= 0 selects
	// DefaultSketchK).
	SketchK int
	// Diagnose, when non-nil, classifies every consumed session with
	// internal/diagnose (see diag.go).
	Diagnose *diagnose.Config
	// Windows, when non-empty, charges every consumed session to the
	// timeline window containing its arrival (see windows.go).
	Windows []timeline.Window
	// Live, when true, folds live-mode QoE (join time, live-edge lag,
	// per-channel counters) into the aggregates (see live.go).
	Live bool
	// Proxy, when true, folds proxied-population QoE (proxied-vs-direct
	// splits, per-egress counters) into the aggregates (see proxy.go).
	Proxy bool
}

// NewAccumulator returns an empty accumulator. Dimension counters key on
// each record's own PoP/org/cache fields, so one accumulator serves one
// shard or a whole merged campaign alike. k is the quantile-sketch
// compaction parameter (<= 0 selects DefaultSketchK).
func NewAccumulator(k int) *Accumulator {
	a := &Accumulator{
		k:        k,
		sketches: make(map[string]*QuantileSketch, len(metricNames)),
		hists: map[string]*Histogram{
			MetricStartupMS:    NewHistogram(0, startupHistMaxMS, startupHistBins),
			MetricRebufferRate: NewHistogram(0, 1, rebufHistBins),
		},
		counters: NewCounterSet(),

		sessionsPoP:   newKeyMemo(CounterSessions, "pop"),
		sessionsOrg:   newKeyMemo(CounterSessions, "org"),
		chunksPoP:     newKeyMemo(CounterChunks, "pop"),
		chunksHitPoP:  newKeyMemo(CounterChunksHit, "pop"),
		chunksCache:   newKeyMemo(CounterChunks, "cache"),
		chunksBitrate: newKeyMemo(CounterChunks, "bitrate"),
		liveChannels:  newKeyMemo(CounterSessions, LiveChannelDim),
		proxyEgresses: newKeyMemo(CounterSessions, ProxyEgressDim),
	}
	for _, m := range metricNames {
		a.sketches[m] = NewSketch(k)
	}
	a.chunk = chunkSketches{
		dfb: a.sketches[MetricDFBMS], dlb: a.sketches[MetricDLBMS],
		srtt: a.sketches[MetricSRTTMS], server: a.sketches[MetricServerMS],
		serverHit: a.sketches[MetricServerHitMS], serverMiss: a.sketches[MetricServerMissMS],
		dwait: a.sketches[MetricDwaitMS], dopen: a.sketches[MetricDopenMS],
		dread: a.sketches[MetricDreadMS],
	}
	return a
}

// NewAccumulatorWith returns an accumulator with the configured optional
// modes enabled (per-session diagnosis, timeline windows).
func NewAccumulatorWith(cfg Config) *Accumulator {
	a := NewAccumulator(cfg.SketchK)
	if cfg.Diagnose != nil {
		a.enableDiagnosis(*cfg.Diagnose)
	}
	a.enableWindows(cfg.Windows)
	if cfg.Live {
		a.enableLive()
	}
	if cfg.Proxy {
		a.enableProxy()
	}
	return a
}

// ConsumeSession implements core.RecordSink: it folds one finished
// session and its chunks into the aggregates and retains nothing.
func (a *Accumulator) ConsumeSession(s core.SessionRecord, chunks []core.ChunkRecord) {
	a.counters.Inc(CounterSessions)
	a.counters.Inc(a.sessionsPoP.intKey(s.PoP))
	a.counters.Inc(a.sessionsOrg.strKey(s.OrgType))
	// StartupMS is NaN for sessions that never started playback; those go
	// to a dedicated counter instead of the startup distribution.
	if math.IsNaN(s.StartupMS) {
		a.counters.Inc(CounterSessionsNeverStart)
	} else {
		a.sketches[MetricStartupMS].Add(s.StartupMS)
		a.hists[MetricStartupMS].Add(s.StartupMS)
	}
	a.sketches[MetricRebufferRate].Add(s.RebufferRate)
	a.hists[MetricRebufferRate].Add(s.RebufferRate)
	diagLabel := ""
	if a.diag != nil {
		diagLabel = a.consumeDiagnosis(s, chunks)
	}
	if len(a.windows) > 0 {
		a.consumeWindow(s, diagLabel)
	}
	if a.live {
		a.consumeLive(s)
	}
	if a.proxy {
		a.consumeProxy(s)
	}

	if len(chunks) == 0 {
		return
	}
	// Counters whose key is the same for every chunk of the session are
	// added once per session; a key is only ever created with a
	// non-zero count, as a per-chunk increment would create it.
	var hits, retries uint64
	sk := &a.chunk
	for i := range chunks {
		c := &chunks[i]
		a.counters.Inc(a.chunksCache.strKey(c.CacheLevel))
		a.counters.Inc(a.chunksBitrate.intKey(c.BitrateKbps))
		server := c.ServerLatencyMS()
		if c.CacheHit {
			hits++
			sk.serverHit.Add(server)
		} else {
			sk.serverMiss.Add(server)
		}
		if c.RetryTimer {
			retries++
		}
		sk.dfb.Add(c.DFBms)
		sk.dlb.Add(c.DLBms)
		sk.srtt.Add(c.SRTTms)
		sk.server.Add(server)
		sk.dwait.Add(c.DwaitMS)
		sk.dopen.Add(c.DopenMS)
		sk.dread.Add(c.DreadMS)
	}
	n := uint64(len(chunks))
	a.counters.AddN(CounterChunks, n)
	a.counters.AddN(a.chunksPoP.intKey(s.PoP), n)
	if hits > 0 {
		a.counters.AddN(CounterChunksHit, hits)
		a.counters.AddN(a.chunksHitPoP.intKey(s.PoP), hits)
	}
	if retries > 0 {
		a.counters.AddN(CounterChunksRetryTimer, retries)
	}
}

// Merge folds o into a, iterating the canonical metric list so the result
// depends only on operand order.
func (a *Accumulator) Merge(o *Accumulator) {
	if o == nil {
		return
	}
	for _, m := range metricNames {
		a.sketches[m].Merge(o.sketches[m])
	}
	for _, m := range a.diagNames {
		a.sketches[m].Merge(o.sketches[m])
	}
	for _, m := range a.windowNames {
		a.sketches[m].Merge(o.sketches[m])
	}
	for _, m := range a.liveNames {
		a.sketches[m].Merge(o.sketches[m])
	}
	for _, m := range a.proxyNames {
		a.sketches[m].Merge(o.sketches[m])
	}
	for name, h := range a.hists {
		h.Merge(o.hists[name])
	}
	a.counters.Merge(o.counters)
}

// snapshot packages the accumulator's state.
func (a *Accumulator) snapshot() *Snapshot {
	return &Snapshot{
		Schema:     SnapshotSchema,
		SketchK:    NewSketch(a.k).K(),
		Windows:    a.windows,
		Sketches:   a.sketches,
		Histograms: a.hists,
		Counters:   a.counters.Map(),
	}
}

// Campaign owns the per-shard accumulators of one streamed run. Its Sink
// method is a session.SinkFactory; every call mints a fresh accumulator,
// and Snapshot merges them in the order the runner created them — the
// runner's canonical ascending (PoP, server-slot) plan order, which is
// what keeps streamed output byte-identical at any parallelism.
type Campaign struct {
	mu   sync.Mutex
	cfg  Config
	accs []*Accumulator
}

// NewCampaign returns an empty campaign with the given sketch parameter
// (<= 0 selects DefaultSketchK).
func NewCampaign(k int) *Campaign {
	return NewCampaignWith(Config{SketchK: k})
}

// NewCampaignWith returns an empty campaign whose per-PoP accumulators
// run in the configured modes (diagnosis and/or timeline windows).
func NewCampaignWith(cfg Config) *Campaign {
	if cfg.Diagnose != nil {
		withDefaults := cfg.Diagnose.WithDefaults()
		cfg.Diagnose = &withDefaults
	}
	return &Campaign{cfg: cfg}
}

// newAccumulator builds one shard accumulator in the campaign's mode.
func (c *Campaign) newAccumulator() *Accumulator {
	return NewAccumulatorWith(c.cfg)
}

// Sink returns a fresh accumulator for one shard. Every call gets its own
// accumulator — shards of the same PoP must not share one, since each
// feeds its sink from its own goroutine. Snapshot later merges the
// accumulators in Sink-call order, so callers must mint sinks in their
// canonical shard order (the session runner's sequential plan phase
// does). Sink is safe for concurrent use regardless.
func (c *Campaign) Sink(popID int) core.RecordSink {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.newAccumulator()
	c.accs = append(c.accs, a)
	return a
}

// Snapshot merges the shard accumulators in Sink-call order and returns
// the campaign-wide state. Call it only after the run completes.
func (c *Campaign) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := c.newAccumulator()
	for _, a := range c.accs {
		merged.Merge(a)
	}
	return merged.snapshot()
}
