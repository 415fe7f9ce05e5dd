// diag.go folds per-session root-cause diagnosis (internal/diagnose)
// into the streaming aggregates: one label-dimensioned session counter
// ("sessions_diag=<label>") and three per-label QoE sketches (startup,
// re-buffering ratio, average bitrate), so campaigns can report not only
// how QoE is distributed but which layer hurt the degraded sessions —
// without ever materializing a record.
package telemetry

import (
	"math"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
)

// MetricAvgBitrateKbps is the base name of the per-label average-bitrate
// sketches ("avg_bitrate_kbps_diag=<label>"). There is no undimensioned
// sketch of this name; it exists only under the diag dimension.
const MetricAvgBitrateKbps = "avg_bitrate_kbps"

// DiagDim is the dimension name diagnosis counters and sketches key on.
const DiagDim = "diag"

// DiagSessionsKey returns the session counter key for one label,
// "sessions_diag=<label>".
func DiagSessionsKey(label diagnose.Label) string {
	return DimKey(CounterSessions, DiagDim, string(label))
}

// DiagSketchKey returns the per-label sketch name for one base metric,
// e.g. DiagSketchKey(MetricStartupMS, diagnose.Healthy) =
// "startup_ms_diag=healthy".
func DiagSketchKey(base string, label diagnose.Label) string {
	return DimKey(base, DiagDim, string(label))
}

// diagMetricBases are the per-label sketch families, in canonical order.
var diagMetricBases = []string{MetricStartupMS, MetricRebufferRate, MetricAvgBitrateKbps}

// diagSketchNames lists every per-label sketch in canonical order
// (labels outer, metric families inner), the order Merge iterates.
func diagSketchNames() []string {
	labels := diagnose.Labels()
	out := make([]string, 0, len(labels)*len(diagMetricBases))
	for _, l := range labels {
		for _, base := range diagMetricBases {
			out = append(out, DiagSketchKey(base, l))
		}
	}
	return out
}

// enableDiagnosis switches the accumulator into diagnosis mode: every
// consumed session is classified and folded into the per-label state.
// Call before the first ConsumeSession; the per-label sketches are
// created eagerly so empty labels still merge and snapshot
// deterministically.
func (a *Accumulator) enableDiagnosis(cfg diagnose.Config) {
	c := cfg.WithDefaults()
	a.diag = &c
	a.diagNames = diagSketchNames()
	for _, name := range a.diagNames {
		a.sketches[name] = NewSketch(a.k)
	}
	a.diagSlots = make(map[diagnose.Label]qoeSlot, len(diagnose.Labels()))
	for _, l := range diagnose.Labels() {
		a.diagSlots[l] = a.newQoESlot(DiagSessionsKey(l), func(base string) string {
			return DiagSketchKey(base, l)
		})
	}
}

// qoeSlot is one value of a session dimension (a diagnosis label, a
// timeline window): its session counter key and its QoE sketch trio,
// looked up once when the mode is enabled.
type qoeSlot struct {
	sessionsKey             string
	startup, rebuf, bitrate *QuantileSketch
}

// newQoESlot resolves a slot's sketches, named by sketchKey from the
// trio's base metrics; the sketches must already exist.
func (a *Accumulator) newQoESlot(sessionsKey string, sketchKey func(base string) string) qoeSlot {
	return qoeSlot{
		sessionsKey: sessionsKey,
		startup:     a.sketches[sketchKey(MetricStartupMS)],
		rebuf:       a.sketches[sketchKey(MetricRebufferRate)],
		bitrate:     a.sketches[sketchKey(MetricAvgBitrateKbps)],
	}
}

// consume counts one session in the slot and folds its QoE.
func (q *qoeSlot) consume(cs *CounterSet, s core.SessionRecord) {
	cs.Inc(q.sessionsKey)
	if !math.IsNaN(s.StartupMS) {
		q.startup.Add(s.StartupMS)
	}
	q.rebuf.Add(s.RebufferRate)
	q.bitrate.Add(s.AvgBitrateKbps)
}

// consumeDiagnosis classifies one finished session, folds its QoE into
// the label's counters and sketches, and returns the label so windowed
// mode can cross it with the session's arrival window.
func (a *Accumulator) consumeDiagnosis(s core.SessionRecord, chunks []core.ChunkRecord) string {
	label := diagnose.Classify(s, chunks, *a.diag).Label
	slot := a.diagSlots[label]
	slot.consume(a.counters, s)
	return string(label)
}
