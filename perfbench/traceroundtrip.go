package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"vidperf/internal/catalog"
	"vidperf/internal/core"
	"vidperf/internal/figures"
	"vidperf/internal/session"
	"vidperf/internal/workload"
)

// trace-roundtrip is the paper's trace pipeline:
//
//	vodsim -out trace.jsonl && analyze trace trace.jsonl
//
// the default scenario simulated in dataset mode, written as a JSONL
// trace, read back, proxy-filtered and rendered into every figure. It is
// the workload of the record codec; telemetry folding is absent.
const (
	traceSessions = 20000
	traceMaxRank  = 6000 // analyze trace's -max-rank default
	traceFigures  = 23   // results figures.All returns
)

// traceScenario is vodsim's default scenario (its flag defaults).
func traceScenario(e *env) workload.Scenario {
	return workload.Scenario{
		Seed:        e.seed,
		NumSessions: traceSessions,
		NumPrefixes: 2500,
		Catalog:     catalog.Config{NumVideos: 6000},
		ABRName:     "hybrid",
		Parallelism: e.parallel,
	}
}

func runTraceRoundtrip(e *env) (*iteration, error) {
	// Five operations: simulate, write, read, preprocess, figures.
	it := &iteration{attempted: 5}
	t0 := now()
	sc := traceScenario(e)
	// Execute's dataset mode is this collector in custom-sink mode; the
	// setupClock stamps the end of set-up without wrapping the sinks.
	col := new(core.SpanCollector)
	clk := &setupClock{inner: func(int) core.RecordSink { return col.NewSink() }}
	_, err := session.Execute(sc, session.Options{Sinks: clk.factory})
	if err != nil {
		it.check(false, "simulate: %v", err)
		return it, nil
	}
	ds := col.Dataset()
	simEnd := now()
	it.check(len(ds.Sessions) == traceSessions, "simulate: %d sessions, want %d", len(ds.Sessions), traceSessions)

	path := filepath.Join(e.tmp, "trace.jsonl")
	werr := writeTrace(path, ds)
	it.check(werr == nil, "write trace: %v", werr)
	// The CLI path writes and reads in two processes; drop the written
	// dataset and return its memory, as the first process's exit does,
	// so it is not resident while the trace is read back.
	sessions, chunks := len(ds.Sessions), len(ds.Chunks)
	col, ds = nil, nil
	debug.FreeOSMemory()
	back, rerr := readTrace(path)
	it.check(rerr == nil, "read trace: %v", rerr)
	if rerr != nil {
		return it, nil
	}
	it.check(len(back.Sessions) == sessions && len(back.Chunks) == chunks,
		"read back %d sessions/%d chunks, wrote %d/%d", len(back.Sessions), len(back.Chunks), sessions, chunks)
	kept, total, n := preprocess(back)
	it.check(total == len(back.Sessions) && n > 0 && n <= total, "preprocess kept %d of %d sessions", n, total)
	figs := figures.All(kept, traceMaxRank)
	t1 := now()
	it.cpu, it.wall = t1.cpu-t0.cpu, t1.wall.Sub(t0.wall).Seconds()
	checkFigures(it, figs, e.seed)

	it.setup = clk.last.cpu - t0.cpu
	it.simCPU = simEnd.cpu - t0.cpu
	it.chunks = uint64(chunks)
	it.digests = map[string]string{"trace": digestFile(it, path), "figures": digestFigures(figs)}
	checkDigests(it, "trace-roundtrip", e.seed)
	return it, nil
}

// traceTraceRoundtrip replays the pass with the simulation in custom-sink
// mode: a core.SpanCollector's shard sinks, wrapped in probes, collect
// the dataset Execute's dataset mode would return.
func traceTraceRoundtrip(e *env, rec *recorder) (*traced, error) {
	sc := traceScenario(e)
	path := filepath.Join(e.tmp, "trace.jsonl")
	prof, err := beginRun(rec)
	if err != nil {
		return nil, err
	}
	var l layers
	col := new(core.SpanCollector)
	if err := tracedExecute(rec, rec.root, sc, func(int) core.RecordSink { return col.NewSink() }, &l); err != nil {
		return nil, err
	}
	mat := rec.begin("core.materialize", rec.root)
	ds := col.Dataset()
	rec.end(mat)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := rec.begin("core.write_jsonl", rec.root)
	err = writeTrace(path, ds)
	rec.end(w)
	if err != nil {
		return nil, err
	}
	col, ds = nil, nil // as in the untraced pass
	debug.FreeOSMemory()
	r := rec.begin("core.read_jsonl", rec.root)
	back, err := readTrace(path)
	rec.end(r)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	p := rec.begin("core.preprocess", rec.root)
	kept, total, n := preprocess(back)
	rec.end(p)
	f := rec.begin("figures.all", rec.root)
	figs := figures.All(kept, traceMaxRank)
	rec.end(f)
	metrics, err := endRun(rec, prof)
	if err != nil {
		return nil, err
	}
	rp := rec.begin("replay", 0)
	replay(rec, rp, sc, &l)
	rec.end(rp)

	for k, v := range l.metrics("core.collect") {
		metrics[k] = v
	}
	passed := 0
	for _, fig := range figs {
		if fig.Pass {
			passed++
		}
	}
	metrics["core.materialize_s"] = rec.total("core.materialize")
	metrics["core.write_jsonl_s"] = rec.total("core.write_jsonl")
	metrics["core.read_jsonl_s"] = rec.total("core.read_jsonl")
	metrics["core.trace_mb"] = fileSize(path) / (1 << 20)
	metrics["core.codec_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	metrics["core.preprocess_s"] = rec.total("core.preprocess")
	metrics["core.kept_share"] = float64(n) / float64(total)
	metrics["figures.all_s"] = rec.total("figures.all")
	metrics["figures.passed"] = float64(passed)
	metrics["figures.total"] = float64(len(figs))
	trace, err := sha256File(path)
	if err != nil {
		return nil, err
	}
	return &traced{metrics: metrics, digests: map[string]string{"trace": trace, "figures": digestFigures(figs)}}, nil
}

// checkFigures checks the figure step. Every seed must render every
// figure; at the default seed every figure must also reproduce the
// paper's shape. At other seeds a shape that does not reproduce is
// printed, not failed: at 20,000 sessions the shape checks of fig04,
// fig05, fig09, fig10, fig16 and table1 flip with the seed (only seeds
// 1, 14, 18 and 20 of 1–20 reproduce all 23), so they describe the
// model at this scale rather than the correctness of this run.
func checkFigures(it *iteration, figs []figures.Result, seed uint64) {
	var missed []string
	for _, f := range figs {
		if !f.Pass {
			missed = append(missed, f.ID)
		}
	}
	it.check(len(figs) == traceFigures, "figures: rendered %d, want %d", len(figs), traceFigures)
	if seed == defaultSeed {
		it.check(len(missed) == 0, "figures: %v do not reproduce at seed %d", missed, seed)
	} else if len(missed) > 0 {
		fmt.Printf("note: figures %v do not reproduce the paper's shape at seed %d\n", missed, seed)
	}
}

// digestFigures is the SHA-256 of what analyze trace prints for figs.
func digestFigures(figs []figures.Result) string {
	h := sha256.New()
	pass := 0
	for _, f := range figs {
		fmt.Fprintln(h, f.Render())
		if f.Pass {
			pass++
		}
	}
	fmt.Fprintf(h, "== %d figures reproduce, %d shape mismatches ==\n", pass, len(figs)-pass)
	return hex.EncodeToString(h.Sum(nil))
}

// writeTrace writes ds as vodsim writes its -out trace.
func writeTrace(path string, ds *core.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteJSONL(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace reads a trace as analyze trace does.
func readTrace(path string) (*core.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadJSONL(f)
}
