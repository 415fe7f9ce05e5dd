package telemetry

import (
	"math"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
)

// foldSession builds a finished session of n chunks with mixed cache
// levels and bitrates. A degraded session stalls on every third chunk,
// so diagnosis runs its Eq. 4 screen and per-chunk vote.
func foldSession(n int, degraded bool) (core.SessionRecord, []core.ChunkRecord) {
	s := core.SessionRecord{
		SessionID: 7, PoP: 3, OrgType: "residential",
		ArrivalMS: 1500, StartupMS: 900, RebufferRate: 0.001, AvgBitrateKbps: 3000,
		NumChunks: n, Live: true, LiveChannel: 2, LiveSwitches: 1, LiveEdgeLagMS: 40,
		Proxied: true, ProxyCohort: 4, HTTPClientIP: "10.0.0.1", BeaconIP: "10.0.0.2",
	}
	if degraded {
		s.StartupMS, s.RebufferRate = 9000, 0.2
	}
	levels := []string{"ram", "disk", "miss"}
	chunks := make([]core.ChunkRecord, n)
	for i := range chunks {
		chunks[i] = core.ChunkRecord{
			SessionID: s.SessionID, ChunkID: i,
			DFBms: 80 + float64(i%4)*20, DLBms: 900, SRTTms: 40,
			BitrateKbps: []int{1050, 1750, 3000}[i%3], SizeBytes: 1_500_000, DurationSec: 4,
			CacheLevel: levels[i%3], CacheHit: i%3 != 2, RetryTimer: i%3 != 0,
			DwaitMS: 0.3, DopenMS: 0.5, DreadMS: 2, DBEms: float64(i%3/2) * 60,
			CWND: 40, MSS: 1460, SegsSent: 1030, SegsLost: i % 2,
		}
		if degraded && i%3 == 1 {
			chunks[i].BufCount, chunks[i].BufDurMS = 1, 500
		}
	}
	return s, chunks
}

// After one warm-up call has created every key and sketch level the
// session needs, folding it again allocates nothing: counter keys come
// from the accumulator's memos, sketches are resolved once, and the
// diagnosis screen collects no indices. (A sketch allocates a new level
// O(log n) times over its life, far below one per call.)
func TestConsumeSessionAllocatesNothing(t *testing.T) {
	configs := map[string]Config{
		"plain": {},
		"all-modes": {
			Diagnose: &diagnose.Config{},
			Windows:  testWindows(),
			Live:     true,
			Proxy:    true,
		},
	}
	for name, cfg := range configs {
		for _, degraded := range []bool{false, true} {
			a := NewAccumulatorWith(cfg)
			s, chunks := foldSession(12, degraded)
			a.ConsumeSession(s, chunks)
			allocs := testing.AllocsPerRun(200, func() { a.ConsumeSession(s, chunks) })
			if allocs != 0 {
				t.Errorf("%s degraded=%v: ConsumeSession allocated %v times per call", name, degraded, allocs)
			}
		}
	}
}

// The memoised keys are the keys the exported builders name, so a
// snapshot holds exactly the counters it held when every increment
// built its own key.
func TestFoldCounterKeys(t *testing.T) {
	a := NewAccumulatorWith(Config{Diagnose: &diagnose.Config{}, Windows: testWindows(), Live: true, Proxy: true})
	s, chunks := foldSession(6, true)
	s.StartupMS = math.NaN()
	a.ConsumeSession(s, chunks)
	a.ConsumeSession(s, chunks[:0])
	sn := a.snapshot()
	label := diagnose.Classify(s, chunks, diagnose.Config{}).Label
	want := map[string]uint64{
		CounterSessions:                               2,
		IntDimKey(CounterSessions, "pop", 3):          2,
		DimKey(CounterSessions, "org", "residential"): 2,
		CounterSessionsNeverStart:                     2,
		CounterChunks:                                 6,
		IntDimKey(CounterChunks, "pop", 3):            6,
		DimKey(CounterChunks, "cache", "ram"):         2,
		DimKey(CounterChunks, "cache", "disk"):        2,
		DimKey(CounterChunks, "cache", "miss"):        2,
		IntDimKey(CounterChunks, "bitrate", 1050):     2,
		IntDimKey(CounterChunks, "bitrate", 1750):     2,
		IntDimKey(CounterChunks, "bitrate", 3000):     2,
		CounterChunksHit:                              4,
		IntDimKey(CounterChunksHit, "pop", 3):         4,
		CounterChunksRetryTimer:                       4,
		LiveChannelSessionsKey(2):                     2,
		CounterLiveSwitches:                           2,
		CounterSessionsProxied:                        2,
		ProxyEgressSessionsKey(4):                     2,
		CounterSessionsIPMismatch:                     2,
		WindowSessionsKey("w01-outage"):               2,
	}
	// The chunkless session classifies on its own.
	for _, l := range []diagnose.Label{label, diagnose.Classify(s, nil, diagnose.Config{}).Label} {
		want[DiagSessionsKey(l)]++
		want[WindowDiagSessionsKey("w01-outage", string(l))]++
	}
	if len(sn.Counters) != len(want) {
		t.Errorf("snapshot has %d counters, want %d: %v", len(sn.Counters), len(want), sn.Counters)
	}
	for k, v := range want {
		if got := sn.Counters[k]; got != v {
			t.Errorf("counter %q = %d, want %d", k, got, v)
		}
	}
}
