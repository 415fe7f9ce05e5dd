package main

import (
	"runtime"
	"time"

	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

// tally counts the simulated statistics of the chunk records a sink
// saw. They depend only on the seed, never on the host.
type tally struct {
	chunks, hit, ram, disk, miss, retry uint64
	segsSent, segsLost                  uint64
}

func (t *tally) addChunks(chunks []core.ChunkRecord) {
	for i := range chunks {
		c := &chunks[i]
		t.chunks++
		if c.CacheHit {
			t.hit++
		}
		switch c.CacheLevel {
		case "ram":
			t.ram++
		case "disk":
			t.disk++
		case "miss":
			t.miss++
		}
		if c.RetryTimer {
			t.retry++
		}
		t.segsSent += uint64(c.SegsSent)
		t.segsLost += uint64(c.SegsLost)
	}
}

func (t *tally) merge(o tally) {
	t.chunks += o.chunks
	t.hit += o.hit
	t.ram += o.ram
	t.disk += o.disk
	t.miss += o.miss
	t.retry += o.retry
	t.segsSent += o.segsSent
	t.segsLost += o.segsLost
}

// probe wraps one shard's sink. It keeps the times of the first and last
// record the shard delivered, the time spent inside the wrapped sink,
// and the shard's tally. Each shard feeds its probe from one goroutine.
type probe struct {
	inner       core.RecordSink
	first, last time.Time
	sink        time.Duration
	calls       int
	tally       tally
}

func (p *probe) ConsumeSession(s core.SessionRecord, chunks []core.ChunkRecord) {
	p.tally.addChunks(chunks)
	t0 := time.Now()
	if p.calls == 0 {
		p.first = t0
	}
	p.inner.ConsumeSession(s, chunks)
	p.last = time.Now()
	p.sink += p.last.Sub(t0)
	p.calls++
}

// ReserveRecords forwards the runner's pre-sizing hint, so a wrapped
// materializing sink allocates exactly as it would unwrapped.
func (p *probe) ReserveRecords(sessions, chunks int) {
	if r, ok := p.inner.(core.RecordReserver); ok {
		r.ReserveRecords(sessions, chunks)
	}
}

// probeSet is a session.SinkFactory that wraps every shard sink the inner
// factory builds in a probe. The runner calls factories sequentially in
// its plan phase, after population build and partitioning, and starts no
// shard before the last call returns; so the first call marks the end of
// partitioning and the last the end of set-up.
type probeSet struct {
	inner               session.SinkFactory
	firstCall, lastCall time.Time
	probes              []*probe
}

func (ps *probeSet) factory(popID int) core.RecordSink {
	if ps.firstCall.IsZero() {
		ps.firstCall = time.Now()
	}
	p := &probe{inner: ps.inner(popID)}
	ps.probes = append(ps.probes, p)
	ps.lastCall = time.Now()
	return p
}

// setupClock is a session.SinkFactory for the untraced passes: it hands
// out the inner factory's sinks unwrapped and keeps the stamp of the
// last call, the end of the run's set-up (see probeSet).
type setupClock struct {
	inner session.SinkFactory
	last  stamp
}

func (c *setupClock) factory(popID int) core.RecordSink {
	s := c.inner(popID)
	c.last = now()
	return s
}

// layers accumulates per-layer measurements over every Execute call of a
// traced pass (one for batch workloads, one per window for serve).
type layers struct {
	executes      int
	planS         float64
	shards        int
	shardBusyS    float64
	shardMaxS     float64
	stragglerSum  float64 // sum over executes of max/mean shard span
	workerSecs    float64 // sum over executes of workers × Execute wall
	sinkS         float64
	sinkCalls     int
	tally         tally
	sessions      int
	plannedChunks int
	buildS        float64
	partitionS    float64
	warmS         float64
	warmAllocMB   float64
	warmShards    int
}

// tracedExecute runs sc in custom-sink mode with every shard sink wrapped
// in a probe, and records session.execute with its session.setup and
// per-shard session.shard children under parent.
func tracedExecute(rec *recorder, parent int, sc workload.Scenario, inner session.SinkFactory, l *layers) error {
	ps := &probeSet{inner: inner}
	start := time.Now()
	_, err := session.Execute(sc, session.Options{Sinks: ps.factory})
	end := time.Now()
	dispatched := ps.lastCall
	if err != nil {
		return err
	}
	ex := rec.add("session.execute", parent, start, end)
	rec.add("session.setup", ex, start, dispatched)
	var maxSpan, sumSpan float64
	for _, p := range ps.probes { // every shard has sessions, so every probe saw records
		rec.add("session.shard", ex, p.first, p.last)
		d := p.last.Sub(p.first).Seconds()
		maxSpan = max(maxSpan, d)
		sumSpan += d
		l.sinkS += p.sink.Seconds()
		l.sinkCalls += p.calls
		l.tally.merge(p.tally)
	}
	wall := end.Sub(start).Seconds()
	l.executes++
	l.planS += dispatched.Sub(ps.firstCall).Seconds()
	l.shards += len(ps.probes)
	l.shardBusyS += sumSpan
	l.shardMaxS = max(l.shardMaxS, maxSpan)
	if sumSpan > 0 {
		l.stragglerSum += maxSpan / (sumSpan / float64(len(ps.probes)))
	}
	// The runner runs at most GOMAXPROCS shards at once; every workload
	// sets Parallelism to GOMAXPROCS.
	workers := min(runtime.GOMAXPROCS(0), len(ps.probes))
	l.workerSecs += float64(workers) * wall
	return nil
}

// replay re-runs, outside the timed pass, the set-up work Execute does
// internally for sc: population build, slot partition, and for every
// shard the slot-fleet build plus cache warmup. Spans go under parent.
func replay(rec *recorder, parent int, sc workload.Scenario, l *layers) {
	b := rec.begin("workload.build", parent)
	pop := workload.Build(sc)
	rec.end(b)
	l.buildS += rec.dur(b)

	esc := pop.Scenario
	cfg := esc.Fleet.WithDefaults()
	p := rec.begin("workload.partition", parent)
	parts, planned := pop.PartitionBySlot(cfg)
	rec.end(p)
	l.partitionS += rec.dur(p)
	l.sessions += esc.NumSessions

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for bucket, refs := range parts {
		if len(refs) == 0 {
			continue
		}
		l.plannedChunks += planned[bucket]
		popID, slot := bucket/cfg.ServersPerPoP, bucket%cfg.ServersPerPoP
		w := rec.begin("cdn.warm", parent)
		fleet := cdn.NewSlotFleet(esc.Fleet, esc.Seed, popID, slot)
		if !esc.ColdStart {
			session.WarmPoP(fleet, pop.Catalog, popID)
		}
		rec.end(w)
		l.warmS += rec.dur(w)
		l.warmShards++
	}
	runtime.ReadMemStats(&after)
	l.warmAllocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// metrics turns the accumulated measurements into per-layer metrics.
// sinkLayer names the layer the shard sinks belong to ("telemetry.fold"
// or "core.collect").
func (l *layers) metrics(sinkLayer string) map[string]float64 {
	m := map[string]float64{
		"workload.build_s":        l.buildS,
		"workload.partition_s":    l.partitionS,
		"workload.sessions":       float64(l.sessions),
		"workload.planned_chunks": float64(l.plannedChunks),
		"session.plan_s":          l.planS,
		"cdn.warm_s":              l.warmS,
		"cdn.warm_alloc_mb":       l.warmAllocMB,
		"cdn.warm_shards":         float64(l.warmShards),
		"session.shards":          float64(l.shards),
		"session.shard_busy_s":    l.shardBusyS,
		"session.loop_s":          l.shardBusyS - l.sinkS,
		"session.shard_max_s":     l.shardMaxS,
		"session.worker_idle_s":   l.workerSecs - l.shardBusyS - l.warmS,
		"cdn.chunks":              float64(l.tally.chunks),
		"cdn.ram_chunks":          float64(l.tally.ram),
		"cdn.disk_chunks":         float64(l.tally.disk),
		"cdn.miss_chunks":         float64(l.tally.miss),
		"cdn.retry_timer_chunks":  float64(l.tally.retry),
		"tcpmodel.segs_sent":      float64(l.tally.segsSent),
		"tcpmodel.segs_lost":      float64(l.tally.segsLost),
		sinkLayer + "_s":          l.sinkS,
	}
	if l.executes > 0 {
		m["session.straggler_ratio"] = l.stragglerSum / float64(l.executes)
	}
	if l.tally.chunks > 0 {
		m["cdn.hit_ratio"] = float64(l.tally.hit) / float64(l.tally.chunks)
	}
	if l.tally.segsSent > 0 {
		m["tcpmodel.loss_ratio"] = float64(l.tally.segsLost) / float64(l.tally.segsSent)
	}
	if sinkLayer == "telemetry.fold" {
		m["telemetry.fold_calls"] = float64(l.sinkCalls)
	}
	return m
}
