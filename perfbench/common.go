package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"

	"vidperf/internal/diagnose"
	"vidperf/internal/experiment"
	"vidperf/internal/telemetry"
	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

// pinnedDigests are the SHA-256 digests of each workload's output files
// at defaultSeed. They equal the bytes the CLIs write for the same
// command lines; a change that moves them has changed the model's output.
// Checkpoints are not pinned: they embed the checkpoint path and the
// host's parallelism.
var pinnedDigests = map[string]map[string]string{
	"vod-stream":    {"snapshot": "8af5bec73bd4399f30656891dcde15703d6cc0bb45f328e859b0d469295cc8ed"},
	"serve-windows": {"snapshot": "b19017ea89829963a4083fc0966c63f69a40853bbee98eeff9e29032ace843b4"},
	"trace-roundtrip": {
		"trace":   "24ea9dcfb92193329bb7f0cb48f8e6b141a2a46d4bf250cf3ae853058cbb1d02",
		"figures": "b62684275f594ee280c5d8a8e3da29533bc3ff739d04439a8a51b354e728f6c8",
	},
}

// checkDigests compares the pass's output digests with the pinned ones
// when the pass ran at the default seed.
func checkDigests(it *iteration, workloadName string, seed uint64) {
	if seed != defaultSeed {
		return
	}
	for name, want := range pinnedDigests[workloadName] {
		got := it.digests[name]
		it.check(got == want, "%s digest at seed %d: got %s, want %.16s", name, seed, got, want)
	}
}

// sha256File returns the SHA-256 of a file's bytes.
func sha256File(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digestFile is sha256File for an untraced pass, which records a read
// failure as a failed check.
func digestFile(it *iteration, path string) string {
	d, err := sha256File(path)
	it.check(err == nil, "digest: %v", err)
	return d
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// checkSnapshot applies the conservation laws every snapshot obeys:
// every session is counted once, once per diagnosis label, and every
// chunk is either a cache hit or a miss.
func checkSnapshot(it *iteration, name string, sn *telemetry.Snapshot, wantSessions int) {
	sessions := sn.Counter(telemetry.CounterSessions)
	it.check(sessions == uint64(wantSessions), "%s: %d sessions, want %d", name, sessions, wantSessions)
	var diag uint64
	for _, dc := range telemetry.CountersByDim(sn.Counters, telemetry.CounterSessions, telemetry.DiagDim) {
		diag += dc.N
	}
	it.check(diag == sessions, "%s: diagnosis labels count %d sessions, want %d", name, diag, sessions)
	chunks := sn.Counter(telemetry.CounterChunks)
	hit := sn.Counter(telemetry.CounterChunksHit)
	miss := sn.Counter(telemetry.DimKey(telemetry.CounterChunks, "cache", "miss"))
	it.check(chunks > 0 && chunks == hit+miss, "%s: chunks %d != hits %d + misses %d", name, chunks, hit, miss)
}

// writeSnapshot writes sn to path the way the CLIs do.
func writeSnapshot(path string, sn *telemetry.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteSnapshot(f, sn); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// labelSnapshot stamps sn with the labels experiment.RunCell stamps on a
// cell's snapshot.
func labelSnapshot(sp *experiment.Spec, cell experiment.Cell, sn *telemetry.Snapshot) {
	sn.Labels = map[string]string{
		"spec": sp.Name,
		"cell": cell.Name,
		"seed": strconv.FormatUint(cell.Scenario.Seed, 10),
	}
	if sp.Diagnosis {
		sn.Labels["diagnosis"] = "on"
	}
	if sp.Timeline != nil {
		sn.Labels["timeline"] = fmt.Sprintf("%d-phase", len(sp.Timeline.Phases))
	}
	if sp.Live != nil {
		sn.Labels["live"] = fmt.Sprintf("%d-channel", sp.Live.Channels)
	}
	if sp.Proxy != nil {
		sn.Labels["proxy"] = fmt.Sprintf("share=%g", sp.Proxy.Share)
	}
	for name, value := range cell.Axes {
		sn.Labels["axis:"+name] = value
	}
}

// newCampaign builds the telemetry campaign session.Execute builds in
// telemetry mode for sc: windows from the timeline (shifted onto the
// virtual clock) unless given, live and proxy modes from the scenario.
func newCampaign(sc workload.Scenario, sketchK int, diag bool, windows []timeline.Window) *telemetry.Campaign {
	eff := sc.WithDefaults()
	if windows == nil {
		windows = eff.Timeline.Windows(eff.ArrivalWindowMS)
		for i := range windows {
			windows[i].StartMS += eff.ArrivalOffsetMS
			windows[i].EndMS += eff.ArrivalOffsetMS
		}
	}
	cfg := telemetry.Config{
		SketchK: sketchK,
		Windows: windows,
		Live:    eff.Live.Enabled(),
		Proxy:   eff.Proxy.Enabled(),
	}
	if diag {
		cfg.Diagnose = &diagnose.Config{}
	}
	return telemetry.NewCampaignWith(cfg)
}

// beginRun starts the CPU profile and opens the pass's "run" span, whose
// direct children are the blocking steps of the workload.
func beginRun(rec *recorder) (*bytes.Buffer, error) {
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return nil, err
	}
	rec.root = rec.begin("run", 0)
	return buf, nil
}

// endRun closes the "run" span, stops the profile, and returns the
// cpu.<layer>_s metrics.
func endRun(rec *recorder, prof *bytes.Buffer) (map[string]float64, error) {
	rec.end(rec.root)
	pprof.StopCPUProfile()
	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, l := range cpuLayers {
		m["cpu."+l+"_s"] = cpu[l]
	}
	return m, nil
}
