package core

import (
	"math"

	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
)

// OutlierReport is the result of the Eq. 4 download-stack outlier
// detection over one session.
type OutlierReport struct {
	// Outliers holds indices (into the session's chunk slice) of chunks
	// flagged as buffered by the client download stack.
	Outliers []int
}

// DetectStackOutliers implements the paper's Eq. 4 screening over one
// session's chunks: a chunk is a download-stack outlier when its
// first-byte delay AND instantaneous throughput are both extreme
// (> mean + 2σ) while network and server-side metrics stay ordinary
// (< mean + σ). The method needs a handful of chunks to estimate the
// session's own baseline; sessions shorter than minChunks return nothing.
func DetectStackOutliers(chunks []ChunkRecord) OutlierReport {
	var rep OutlierReport
	screen := NewStackScreen(chunks)
	for i := range chunks {
		if screen.Outlier(&chunks[i]) {
			rep.Outliers = append(rep.Outliers, i)
		}
	}
	return rep
}

// StackScreen is the Eq. 4 screen fitted to one session: the session's
// own thresholds, computed once, so a caller can test its chunks one at a
// time without collecting the outlier indices (DetectStackOutliers
// collects them).
type StackScreen struct {
	fitted                      bool
	dfb, tp, srtt, server, cwnd float64
}

// NewStackScreen fits the Eq. 4 thresholds to a session's chunks. A
// session shorter than minChunks gets a screen that flags nothing.
func NewStackScreen(chunks []ChunkRecord) StackScreen {
	const minChunks = 5
	if len(chunks) < minChunks {
		return StackScreen{}
	}
	var dfb, tp, srtt, server, cwnd stats.Summary
	for i := range chunks {
		dfb.Add(chunks[i].DFBms)
		tp.Add(chunks[i].InstantThroughputKbps())
		srtt.Add(chunks[i].SRTTms)
		server.Add(chunks[i].ServerLatencyMS())
		cwnd.Add(float64(chunks[i].CWND))
	}
	return StackScreen{
		fitted: true,
		dfb:    dfb.Mean() + 2*dfb.Std(),
		tp:     tp.Mean() + 2*tp.Std(),
		srtt:   srtt.Mean() + srtt.Std(),
		server: server.Mean() + server.Std(),
		cwnd:   cwnd.Mean() + cwnd.Std(),
	}
}

// Outlier reports whether c, one of the fitted session's chunks, is a
// download-stack outlier. Each test is written as the negation of the
// ordinary case, so a NaN metric never rules a chunk out.
func (s StackScreen) Outlier(c *ChunkRecord) bool {
	return s.fitted &&
		!(c.DFBms <= s.dfb) &&
		!(c.InstantThroughputKbps() <= s.tp) &&
		!(c.SRTTms > s.srtt) &&
		!(c.ServerLatencyMS() > s.server) &&
		!(float64(c.CWND) > s.cwnd)
}

// EstimateDDSms implements the paper's Eq. 5 conservative lower bound on a
// chunk's download-stack latency:
//
//	D_DS >= D_FB − D_CDN − D_BE − RTO,  RTO = 200ms + srtt + 4·srttvar.
//
// Negative estimates clamp to zero (no evidence of stack latency).
func EstimateDDSms(c ChunkRecord) float64 {
	est := c.DFBms - c.DCDNms() - c.DBEms - tcpmodel.RTOPaperms(c.SRTTms, c.SRTTVarMS)
	if est < 0 || math.IsNaN(est) {
		return 0
	}
	return est
}

// PerfSplit classifies chunks by the Eq. 2 score and reports the latency
// and throughput shares of each class (Fig. 16's inputs).
type PerfSplit struct {
	Good, Bad []int // chunk indices with score >= 1 / < 1
}

// SplitByPerfScore partitions chunk indices by perfscore ≥ 1.
func SplitByPerfScore(chunks []ChunkRecord) PerfSplit {
	var s PerfSplit
	for i := range chunks {
		if chunks[i].PerfScore() >= 1 {
			s.Good = append(s.Good, i)
		} else {
			s.Bad = append(s.Bad, i)
		}
	}
	return s
}

// LatencyShare returns D_FB/(D_FB+D_LB) for a chunk — the paper's measure
// of whether latency or throughput dominates its delivery time.
func LatencyShare(c ChunkRecord) float64 {
	total := c.DFBms + c.DLBms
	if total <= 0 {
		return 0
	}
	return c.DFBms / total
}

// SessionChunkStats derives the per-session aggregates §4.2 uses from the
// chunk records: baseline RTT, loss, and first-chunk behaviour.
type SessionChunkStats struct {
	BaselineRTTms float64 // min over per-chunk baseline samples
	TotalSent     int
	TotalLost     int
	FirstLossRate float64 // loss rate of chunk 0
	AnyLoss       bool
}

// ComputeSessionChunkStats aggregates one session's chunks.
func ComputeSessionChunkStats(chunks []ChunkRecord) SessionChunkStats {
	out := SessionChunkStats{BaselineRTTms: math.Inf(1)}
	for i := range chunks {
		c := &chunks[i]
		if b := c.BaselineRTTSampleMS(); b > 0 && b < out.BaselineRTTms {
			out.BaselineRTTms = b
		}
		out.TotalSent += c.SegsSent
		out.TotalLost += c.SegsLost
		if c.ChunkID == 0 {
			out.FirstLossRate = c.LossRate()
		}
		if c.SegsLost > 0 {
			out.AnyLoss = true
		}
	}
	if math.IsInf(out.BaselineRTTms, 1) {
		out.BaselineRTTms = 0
	}
	return out
}

// RetxRate returns the session-wide retransmission rate.
func (s SessionChunkStats) RetxRate() float64 {
	if s.TotalSent == 0 {
		return 0
	}
	return float64(s.TotalLost) / float64(s.TotalSent)
}
