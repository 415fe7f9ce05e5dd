package main

import (
	"fmt"
	"path/filepath"

	"vidperf/internal/experiment"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
)

// vod-stream is the headline CLI path,
//
//	vodsim -spec examples/specs/paper-baseline.json -sessions 60000 -diagnose -out snapshot.json
//
// one streamed campaign with diagnosis and warm caches.
const (
	vodSpecPath = "examples/specs/paper-baseline.json"
	vodSessions = 60000
)

// loadVodCell decodes the spec and applies the overrides the command line
// above applies.
func loadVodCell(e *env) (*experiment.Spec, experiment.Cell, error) {
	sp, err := experiment.LoadFile(vodSpecPath)
	if err != nil {
		return nil, experiment.Cell{}, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return nil, experiment.Cell{}, err
	}
	if len(cells) != 1 {
		return nil, experiment.Cell{}, fmt.Errorf("%s: %d cells, want 1", vodSpecPath, len(cells))
	}
	cell := cells[0]
	cell.Scenario.NumSessions = vodSessions
	cell.Scenario.Seed = e.seed
	cell.Scenario.Parallelism = e.parallel
	sp.Diagnosis = true
	return sp, cell, nil
}

// runVodStream runs Execute in custom-sink mode over the campaign its
// telemetry mode builds, which is that mode's whole body; the sinks pass
// through a setupClock, which stamps the end of set-up without wrapping
// them. The snapshot bytes equal the command line's (pinned at seed 1).
func runVodStream(e *env) (*iteration, error) {
	it := &iteration{attempted: 1}
	t0 := now()
	sp, cell, err := loadVodCell(e)
	if err != nil {
		return nil, err
	}
	camp := newCampaign(cell.Scenario, sp.EffectiveSketchK(), sp.Diagnosis, nil)
	clk := &setupClock{inner: camp.Sink}
	sim0 := now()
	_, err = session.Execute(cell.Scenario, session.Options{Sinks: clk.factory})
	if err != nil {
		it.check(false, "campaign: %v", err)
		return it, nil
	}
	sn := camp.Snapshot()
	sim1 := now()
	labelSnapshot(sp, cell, sn)
	path := filepath.Join(e.tmp, "snapshot.json")
	werr := writeSnapshot(path, sn)
	t1 := now()
	it.cpu, it.wall = t1.cpu-t0.cpu, t1.wall.Sub(t0.wall).Seconds()
	it.setup = clk.last.cpu - t0.cpu
	it.simCPU = sim1.cpu - sim0.cpu
	it.chunks = sn.Counter(telemetry.CounterChunks)
	it.check(werr == nil, "write snapshot: %v", werr)
	checkSnapshot(it, "snapshot", sn, vodSessions)
	it.digests = map[string]string{"snapshot": digestFile(it, path)}
	checkDigests(it, "vod-stream", e.seed)
	return it, nil
}

// traceVodStream replays the pass in custom-sink mode: a campaign built
// as Execute's telemetry mode builds it supplies the shard sinks, wrapped
// in probes.
func traceVodStream(e *env, rec *recorder) (*traced, error) {
	prof, err := beginRun(rec)
	if err != nil {
		return nil, err
	}
	d := rec.begin("experiment.decode", rec.root)
	sp, cell, err := loadVodCell(e)
	rec.end(d)
	if err != nil {
		return nil, err
	}
	var l layers
	camp := newCampaign(cell.Scenario, sp.EffectiveSketchK(), sp.Diagnosis, nil)
	if err := tracedExecute(rec, rec.root, cell.Scenario, camp.Sink, &l); err != nil {
		return nil, err
	}
	m := rec.begin("telemetry.merge", rec.root)
	sn := camp.Snapshot()
	labelSnapshot(sp, cell, sn)
	rec.end(m)
	path := filepath.Join(e.tmp, "snapshot.json")
	enc := rec.begin("telemetry.encode", rec.root)
	werr := writeSnapshot(path, sn)
	rec.end(enc)
	if werr != nil {
		return nil, werr
	}
	metrics, err := endRun(rec, prof)
	if err != nil {
		return nil, err
	}
	rp := rec.begin("replay", 0)
	replay(rec, rp, cell.Scenario, &l)
	rec.end(rp)

	for k, v := range l.metrics("telemetry.fold") {
		metrics[k] = v
	}
	metrics["experiment.decode_s"] = rec.total("experiment.decode")
	metrics["telemetry.merge_s"] = rec.total("telemetry.merge")
	metrics["telemetry.encode_s"] = rec.total("telemetry.encode")
	metrics["telemetry.snapshot_bytes"] = fileSize(path)
	snap, err := sha256File(path)
	if err != nil {
		return nil, err
	}
	return &traced{metrics: metrics, digests: map[string]string{"snapshot": snap}}, nil
}
