package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vidperf/internal/experiment"
	"vidperf/internal/serve"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// serve-windows is the `vodsim serve` engine, unpaced and without an
// HTTP listener, on serve-steady's scenario and serve block:
//
//	vodsim serve -spec examples/specs/serve-steady.json -listen "" \
//	       -max-windows 60 -checkpoint <tmp>/serve.ckpt -out snapshot.json
//
// Every window rebuilds and re-warms its slot fleets, so cache warmup
// dominates; this is where warming each cache image once would show.
const (
	serveSpecPath = "examples/specs/serve-steady.json"
	serveWindows  = 60
	// serveSetups is how many times a pass loads the spec and builds the
	// engine. One set-up takes about 12 µs of CPU, too little for the
	// microsecond CPU clock to read steadily; the pass times them together
	// and runs the last engine built.
	serveSetups = 64
)

// serveConfig maps the spec onto an engine configuration the way
// `vodsim serve -spec` does with only -checkpoint, -max-windows and
// -parallel set.
func serveConfig(e *env, ckpt string) (serve.Config, error) {
	sp, err := experiment.LoadFile(serveSpecPath)
	if err != nil {
		return serve.Config{}, err
	}
	cells, err := sp.Expand()
	if err != nil {
		return serve.Config{}, err
	}
	if len(cells) != 1 {
		return serve.Config{}, fmt.Errorf("%s: %d cells, want 1", serveSpecPath, len(cells))
	}
	cfg := serve.Config{
		Scenario:          cells[0].Scenario,
		SketchK:           sp.EffectiveSketchK(),
		Diagnose:          sp.Diagnosis,
		Ring:              12,
		CheckpointPath:    ckpt,
		MaxWindows:        serveWindows,
		SessionsPerWindow: cells[0].Scenario.NumSessions,
		WindowMS:          30 * 60 * 1000,
	}
	if sv := sp.Serve; sv != nil {
		if sv.SessionsPerWindow > 0 {
			cfg.SessionsPerWindow = sv.SessionsPerWindow
		}
		if sv.WindowMin > 0 {
			cfg.WindowMS = sv.WindowMS()
		}
		if sv.Ring > 0 {
			cfg.Ring = sv.Ring
		}
		cfg.CheckpointEveryWindows = sv.CheckpointEveryWindows
	}
	cfg.Scenario.Seed = e.seed
	cfg.Scenario.Parallelism = e.parallel
	return cfg, nil
}

// windowLog is the slog handler the engine logs through. It keeps the
// time and chunk count of every "window closed" record and drops
// everything else.
type windowLog struct {
	mu     sync.Mutex
	closed []time.Time
	chunks uint64
}

func (h *windowLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *windowLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *windowLog) WithGroup(string) slog.Handler            { return h }

func (h *windowLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "window closed" {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = append(h.closed, r.Time)
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "chunks" {
			h.chunks += a.Value.Uint64()
		}
		return true
	})
	return nil
}

func runServeWindows(e *env) (*iteration, error) {
	it := &iteration{attempted: serveWindows}
	ckpt := filepath.Join(e.tmp, "serve.ckpt")
	wl := &windowLog{}
	t0 := now()
	var eng *serve.Engine
	for range serveSetups {
		cfg, err := serveConfig(e, ckpt)
		if err != nil {
			return nil, err
		}
		if eng, err = serve.NewEngine(cfg, slog.New(wl)); err != nil {
			return nil, err
		}
	}
	runStart := now()
	setups := runStart.cpu - t0.cpu
	it.setup = setups / serveSetups
	runErr := eng.Run(context.Background())
	runEnd := now()
	path := filepath.Join(e.tmp, "snapshot.json")
	f, err := os.Create(path)
	if err == nil {
		err = eng.WriteSnapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	t1 := now()
	// The pass counts one set-up, not serveSetups of them.
	it.cpu = t1.cpu - t0.cpu - setups + it.setup
	it.wall = t1.wall.Sub(runStart.wall).Seconds() // plus a set-up's microseconds
	it.simCPU = runEnd.cpu - runStart.cpu

	done := eng.WindowsDone()
	it.check(runErr == nil, "serve run: %v", runErr)
	for w := done; w < serveWindows; w++ {
		it.check(false, "window %d did not close", w)
	}
	it.check(err == nil, "write snapshot: %v", err)
	prev := runStart.wall
	for _, t := range wl.closed {
		it.windows = append(it.windows, t.Sub(prev).Seconds())
		prev = t
	}
	it.chunks = wl.chunks
	if err == nil {
		sn, rerr := readSnapshot(path)
		it.check(rerr == nil, "read snapshot: %v", rerr)
		if rerr == nil {
			checkSnapshot(it, "final snapshot", sn, serveWindows*eng.Config().SessionsPerWindow)
			it.check(sn.Counter(telemetry.CounterChunks) == wl.chunks,
				"final snapshot has %d chunks, windows logged %d", sn.Counter(telemetry.CounterChunks), wl.chunks)
		}
	}
	ck, cerr := serve.LoadCheckpoint(ckpt)
	it.check(cerr == nil && ck.WindowsDone == serveWindows, "final checkpoint: %v", cerr)
	it.digests = map[string]string{"snapshot": digestFile(it, path), "checkpoint": digestFile(it, ckpt)}
	checkDigests(it, "serve-windows", e.seed)
	return it, nil
}

// traceServeWindows replays the engine's windows through the same public
// calls it makes — serve.WindowSeed, session.Execute (here in custom-sink
// mode over the telemetry campaign the engine's telemetry mode builds),
// telemetry.WithoutWindows and MergeSnapshots, the checkpoint codec — so
// each layer's calls can be timed from outside.
func traceServeWindows(e *env, rec *recorder) (*traced, error) {
	ckpt := filepath.Join(e.tmp, "serve.ckpt")
	prof, err := beginRun(rec)
	if err != nil {
		return nil, err
	}
	su := rec.begin("serve.setup", rec.root)
	cfg, err := serveConfig(e, ckpt)
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(cfg, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		return nil, err
	}
	ecfg := eng.Config()
	rec.end(su)

	var (
		l        layers
		cum      *telemetry.Snapshot
		ring     []serve.WindowResult
		ckpts    int
		ckptSize float64
	)
	checkpoint := func(parent, done int, virtualMS float64) error {
		c := rec.begin("serve.checkpoint", parent)
		defer rec.end(c)
		n, err := writeCheckpoint(ckpt, &serve.Checkpoint{
			Schema:      serve.CheckpointSchema,
			Config:      ecfg,
			WindowsDone: done,
			VirtualMS:   virtualMS,
			Cumulative:  cum,
			Ring:        ring,
		})
		ckpts++
		ckptSize += float64(n)
		return err
	}
	var lastMS float64
	for idx := 0; idx < serveWindows; idx++ {
		win := rec.begin("serve.window", rec.root)
		sc, w := windowScenario(ecfg, idx)
		lastMS = w.EndMS
		camp := newCampaign(sc, ecfg.SketchK, ecfg.Diagnose, []timeline.Window{w})
		if err := tracedExecute(rec, win, sc, camp.Sink, &l); err != nil {
			return nil, err
		}
		m := rec.begin("telemetry.merge", win)
		sn := camp.Snapshot()
		sn.VirtualMS = w.EndMS
		ring = append(ring, serve.WindowResult{Index: idx, Window: w, Snapshot: sn})
		if len(ring) > ecfg.Ring {
			ring = ring[len(ring)-ecfg.Ring:]
		}
		if cum, err = telemetry.MergeSnapshots(cum, telemetry.WithoutWindows(sn)); err != nil {
			return nil, err
		}
		rec.end(m)
		if ecfg.CheckpointEveryWindows > 0 && (idx+1)%ecfg.CheckpointEveryWindows == 0 {
			if err := checkpoint(win, idx+1, w.EndMS); err != nil {
				return nil, err
			}
		}
		rec.end(win)
	}
	// Run writes a last checkpoint when it stops.
	if err := checkpoint(rec.root, serveWindows, lastMS); err != nil {
		return nil, err
	}
	path := filepath.Join(e.tmp, "snapshot.json")
	enc := rec.begin("telemetry.encode", rec.root)
	werr := writeSnapshot(path, cum)
	rec.end(enc)
	if werr != nil {
		return nil, werr
	}
	metrics, err := endRun(rec, prof)
	if err != nil {
		return nil, err
	}

	rp := rec.begin("replay", 0)
	for idx := 0; idx < serveWindows; idx++ {
		sc, _ := windowScenario(ecfg, idx)
		replay(rec, rp, sc, &l)
	}
	rec.end(rp)

	for k, v := range l.metrics("telemetry.fold") {
		metrics[k] = v
	}
	metrics["experiment.decode_s"] = rec.total("serve.setup")
	metrics["telemetry.merge_s"] = rec.total("telemetry.merge")
	metrics["telemetry.encode_s"] = rec.total("telemetry.encode")
	metrics["telemetry.snapshot_bytes"] = fileSize(path)
	metrics["serve.windows"] = serveWindows
	metrics["serve.checkpoints"] = float64(ckpts)
	metrics["serve.checkpoint_bytes"] = ckptSize
	metrics["serve.checkpoint_s"] = rec.total("serve.checkpoint")
	snap, err := sha256File(path)
	if err != nil {
		return nil, err
	}
	ck, err := sha256File(ckpt)
	if err != nil {
		return nil, err
	}
	return &traced{metrics: metrics, digests: map[string]string{"snapshot": snap, "checkpoint": ck}}, nil
}

// windowScenario is service window idx's batch sub-campaign and report
// window, as the engine derives them.
func windowScenario(cfg serve.Config, idx int) (workload.Scenario, timeline.Window) {
	sc := cfg.Scenario
	sc.Seed = serve.WindowSeed(cfg.Scenario.Seed, idx)
	sc.NumSessions = cfg.SessionsPerWindow
	sc.ArrivalWindowMS = cfg.WindowMS
	sc.ArrivalOffsetMS = float64(idx) * cfg.WindowMS
	w := timeline.Window{Name: serve.WindowName(idx), StartMS: sc.ArrivalOffsetMS, EndMS: sc.ArrivalOffsetMS + cfg.WindowMS}
	return sc, w
}

// writeCheckpoint encodes ck as the engine's checkpoint codec does (one
// JSON object and a newline) and returns the bytes written.
func writeCheckpoint(path string, ck *serve.Checkpoint) (int, error) {
	buf, err := json.Marshal(ck)
	if err != nil {
		return 0, err
	}
	buf = append(buf, '\n')
	return len(buf), os.WriteFile(path, buf, 0o600)
}

func readSnapshot(path string) (*telemetry.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadSnapshot(f)
}
