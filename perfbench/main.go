// Command perfbench is the repository's benchmark driver. It runs a
// named workload through the same public entry points the CLIs call,
// repeats it for a fixed number of host seconds, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separate traced run) as the last line of standard output.
// It exits non-zero when an output check fails. perfbench/run.sh builds
// and runs it:
//
//	bash perfbench/run.sh --workload vod-stream --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//
// Workloads (see README.md for why each exists):
//
//	vod-stream       paper-baseline spec, 60,000 sessions, diagnosis, streaming telemetry
//	serve-windows    the vodsim serve engine on serve-steady, 60 unpaced windows
//	trace-roundtrip  default scenario → JSONL trace → read back → proxy filter → figures
//
// The run is one process. Every workload runs at Parallelism = GOMAXPROCS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed every shipped spec uses; digests of the outputs
// are pinned for it.
const defaultSeed = 1

// env is what one workload pass needs from the driver.
type env struct {
	seed     uint64
	parallel int
	tmp      string // scratch directory for output files, removed at exit
}

// pass is the environment of a run's pass k. Pass 0 uses the run's seed;
// pass k > 0 uses a seed derived from it by a SplitMix64 step. A run's
// medians then cover several inputs, not one: with a single input per
// run, a seed whose data happens to be heavy (trace-roundtrip's peak
// memory differs by a fifth between seeds) moves the whole run. The same
// run seed always gives the same inputs.
func (e *env) pass(k int) *env {
	pe := *e
	if k > 0 {
		z := e.seed + uint64(k)*0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		pe.seed = z ^ z>>31
	}
	return &pe
}

// iteration is the outcome of one untraced pass of a workload. Its
// times are process CPU seconds (see cpuSeconds) unless named wall.
type iteration struct {
	setup     float64   // first call until shard work is dispatched
	cpu       float64   // first call to last output written
	wall      float64   // the same span in wall seconds
	simCPU    float64   // inside the simulation calls
	chunks    uint64    // simulated chunks
	windows   []float64 // serve: wall intervals between closed windows
	attempted int
	failed    int
	problems  []string
	digests   map[string]string // output name → SHA-256 hex
	allocMB   float64
	allocsK   float64
	peakRSSMB float64
}

// check records one operation's outcome: ok false adds a failure and
// its reason.
func (it *iteration) check(ok bool, format string, args ...any) {
	if !ok {
		it.problems = append(it.problems, fmt.Sprintf(format, args...))
	}
}

// traced is the outcome of one traced pass: the per-layer metrics and
// the output digests, which must equal the untraced pass's.
type traced struct {
	metrics map[string]float64
	digests map[string]string
}

type workloadDef struct {
	name     string
	untraced func(e *env) (*iteration, error)
	traced   func(e *env, rec *recorder) (*traced, error)
}

var workloads = []workloadDef{
	{"vod-stream", runVodStream, traceVodStream},
	{"serve-windows", runServeWindows, traceServeWindows},
	{"trace-roundtrip", runTraceRoundtrip, traceTraceRoundtrip},
}

func main() {
	name := flag.String("workload", "vod-stream", "workload: vod-stream, serve-windows, trace-roundtrip, or all (each in turn)")
	seed := flag.Uint64("seed", defaultSeed, "run seed: the first pass's seed, from which later passes derive theirs (1 is the shipped specs' seed)")
	seconds := flag.Int("seconds", 30, "measure each workload for this many host seconds (at least one pass runs)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for scratch outputs and span files")
	flag.Parse()

	var defs []*workloadDef
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			defs = append(defs, &workloads[i])
		}
	}
	if len(defs) == 0 || flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, extra %q)\n",
			*name, *seconds, *traceFlag, flag.Args())
		os.Exit(2)
	}
	total, err := run(defs, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// run measures each workload in turn. With several workloads, each
// metric is prefixed by its workload's name.
func run(defs []*workloadDef, seed uint64, budget time.Duration, trace bool, out string) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, parallel: runtime.GOMAXPROCS(0), tmp: tmp}
	host := fingerprint()
	hostJSON, _ := json.Marshal(host) // a map of strings and ints always encodes
	fmt.Printf("host %s\n", hostJSON)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, def := range defs {
		fmt.Printf("workload %s seed %d seconds %g trace %t\n", def.name, seed, budget.Seconds(), trace)
		var res result
		if trace {
			res, err = measureTraced(def, e, budget, out, host)
		} else {
			res, err = measure(def, e, budget)
		}
		if err != nil {
			return result{}, err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(defs) > 1 {
				k = def.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	return total, nil
}

// fatal reports an error that stops the run before any result.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"chunks_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
}

// measure runs untraced passes until the time budget is spent (at least
// one) and reports medians over them.
func measure(def *workloadDef, e *env, budget time.Duration) (result, error) {
	var iters []*iteration
	var seeds []uint64
	start := time.Now()
	refs := []float64{refKernel(e.parallel)}
	for len(iters) == 0 || time.Since(start) < budget {
		pe := e.pass(len(iters))
		it, err := runPass(def, pe)
		if err != nil {
			return result{}, err
		}
		iters = append(iters, it)
		seeds = append(seeds, pe.seed)
		refs = append(refs, refKernel(e.parallel))
	}
	// Scale CPU seconds to the reference speed by the run's median kernel
	// time. Per-pass scaling tracked nothing a run's median does not: over
	// 134 passes the kernel's time and the pass's CPU seconds next to it
	// did not correlate, and the scaled passes spread more than the raw.
	f := refNominal / median(refs)
	var setup, cpu, rawCPU, wall, rate, alloc, allocs, rss []float64
	res := result{Metrics: map[string]metric{}}
	for i, it := range iters {
		setup = append(setup, it.setup*f)
		cpu = append(cpu, it.cpu*f)
		rawCPU = append(rawCPU, it.cpu)
		wall = append(wall, it.wall)
		if it.simCPU > 0 {
			rate = append(rate, float64(it.chunks)/(it.simCPU*f))
		}
		alloc = append(alloc, it.allocMB)
		allocs = append(allocs, it.allocsK)
		rss = append(rss, it.peakRSSMB)
		res.Attempted += it.attempted
		res.Failed += it.failed
		for _, p := range it.problems {
			fmt.Printf("check failed (pass %d): %s\n", i, p)
		}
	}
	values := map[string]float64{
		"setup_s":          median(setup),
		"cpu_s":            median(cpu),
		"chunks_per_cpu_s": median(rate),
		"peak_rss_mb":      median(rss),
		"alloc_mb":         median(alloc),
		"allocs_k":         median(allocs),
	}
	fmt.Printf("passes %d, failed_share %.4f\n", len(iters), float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("pass seeds %d\nreference kernel CPU s %.4g (scale %.4f)\npass raw CPU s %.4g\n", seeds, refs, f, rawCPU)
	fmt.Printf("pass set-ups %.4g\npass cpus %.4g\npass walls %.4g\npass peak RSS %.4g\n", setup, cpu, wall, rss)
	fmt.Printf("wall_s (median, not a declared metric) %.6f s\n", median(wall))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
		fmt.Printf("%-14s %14.6f %s\n", m.name, values[m.name], m.unit)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runPass runs one untraced pass from a collected heap, returned to the
// kernel, and records its allocation deltas and resident high-water mark.
func runPass(def *workloadDef, e *env) (*iteration, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it, err := def.untraced(e)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	it.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	it.allocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	it.peakRSSMB = peakRSSMB()
	it.failed = min(len(it.problems), it.attempted)
	return it, nil
}

// measureTraced runs (untraced, traced) pass pairs until the budget is
// spent (at least one pair). The traced pass must reproduce the untraced
// pass's output bytes; per-layer metrics are medians over the pairs.
func measureTraced(def *workloadDef, e *env, budget time.Duration, out string, host map[string]any) (result, error) {
	res := result{Metrics: map[string]metric{}}
	samples := map[string][]float64{}
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		pe := e.pass(pair)
		it, err := runPass(def, pe)
		if err != nil {
			return result{}, err
		}
		debug.FreeOSMemory() // start from the same heap state as the untraced pass
		rec := newRecorder(fmt.Sprintf("%s-%d-%d-%d", def.name, pe.seed, os.Getpid(), pair))
		tr, err := def.traced(pe, rec)
		if err != nil {
			return result{}, err
		}
		res.Attempted += it.attempted + 1
		res.Failed += it.failed
		for _, p := range it.problems {
			fmt.Printf("check failed (pair %d): %s\n", pair, p)
		}
		if diff := diffDigests(it.digests, tr.digests); diff != "" {
			res.Failed++
			fmt.Printf("check failed (pair %d): traced output differs from untraced: %s\n", pair, diff)
		}
		runWall := rec.dur(rec.root)
		if it.wall > 0 {
			tr.metrics["bench.trace_overhead"] = runWall/it.wall - 1
		}
		tr.metrics["bench.wall_s"] = it.wall
		if len(it.windows) > 0 {
			tr.metrics["serve.window_s_p50"] = quantile(it.windows, 0.5)
			tr.metrics["serve.window_s_p80"] = quantile(it.windows, 0.8)
		}
		tr.metrics["bench.blocking_share"] = rec.childSum(rec.root) / runWall
		for k, v := range tr.metrics {
			samples[k] = append(samples[k], v)
		}
		path := filepath.Join(out, "spans", rec.runID+".jsonl")
		if err := rec.write(path, map[string]any{"workload": def.name, "seed": pe.seed, "run_seed": e.seed, "host": host}); err != nil {
			return result{}, err
		}
		fmt.Printf("spans written to %s\n", path)
		rec.printTree(os.Stdout)
	}
	for _, m := range perLayer {
		v := median(samples[m.name]) // absent layers report 0
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("%-28s %16.6f %s\n", m.name, v, m.unit)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// diffDigests names the first output whose digest differs between two
// passes, or returns "".
func diffDigests(a, b map[string]string) string {
	var names []string
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %.12s vs %.12s", k, a[k], b[k])
		}
	}
	return ""
}

// fingerprint identifies the host a result was measured on, so numbers
// are compared only between runs on the same kind of host.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// resetPeakRSS asks the kernel to restart this process's resident
// high-water mark from its current RSS (Linux clear_refs "5"). Where that
// is refused, peakRSSMB keeps reporting the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the kernel's resident high-water mark of this process
// (VmHWM) since the last resetPeakRSS.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// stamp is a point in both wall time and this process's CPU time.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp { return stamp{time.Now(), cpuSeconds()} }

// cpuSeconds is the CPU time (user + system) this process has used, in
// seconds. The end-to-end times are CPU times rather than wall times:
// on a shared host a wall time also counts the time the process waited
// for a CPU other tenants held, which moved wall times by half from run
// to run, while a CPU time counts only the work the program did.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
