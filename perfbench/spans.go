package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// side of the call. Parent is the span whose call caused this one (0 for
// a root); every span of one traced pass carries the pass's run ID.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder was made
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the time child spans cover
}

// recorder keeps one traced pass's spans in memory until the pass ends.
// Only the driver goroutine records; shard spans are added after the
// shards finish, from times their probes kept.
type recorder struct {
	runID string
	epoch time.Time
	spans []span
	root  int // the "run" span: the pass's blocking path
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, epoch: time.Now()}
}

// begin opens a span now and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	return r.add(name, parent, time.Now(), time.Time{})
}

// end closes span id now.
func (r *recorder) end(id int) {
	r.spans[id-1].End = time.Since(r.epoch).Seconds()
}

// add records a span whose times were taken elsewhere. A zero end leaves
// the span open.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	s := span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start.Sub(r.epoch).Seconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.epoch).Seconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// dur is span id's duration in seconds.
func (r *recorder) dur(id int) float64 {
	s := r.spans[id-1]
	return s.End - s.Start
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// childSum sums the durations of id's direct children.
func (r *recorder) childSum(id int) float64 {
	var t float64
	for _, s := range r.spans {
		if s.Parent == id {
			t += s.End - s.Start
		}
	}
	return t
}

// computeSelf fills each span's self time: its duration minus the union
// of its children's intervals (children may overlap, e.g. shards running
// concurrently), clipped to the span.
func (r *recorder) computeSelf() {
	kids := map[int][][2]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// write stores the spans as JSON lines: a header object (run ID plus the
// given fields), then one span per line.
func (r *recorder) write(path string, header map[string]any) error {
	r.computeSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	h := map[string]any{"run": r.runID}
	for k, v := range header {
		h[k] = v
	}
	err = enc.Encode(h)
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(struct {
				Run string `json:"run"`
				span
			}{r.runID, s})
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}

// printTree prints total and self seconds per span name, grouped by
// parent name, so repeated spans (windows, shards) fold into one row.
func (r *recorder) printTree(w io.Writer) {
	r.computeSelf()
	type row struct {
		path        string
		n           int
		total, self float64
	}
	rows := map[string]*row{}
	var order []string
	pathOf := func(s span) string {
		parts := []string{s.Name}
		for p := s.Parent; p != 0; p = r.spans[p-1].Parent {
			parts = append([]string{r.spans[p-1].Name}, parts...)
		}
		return strings.Join(parts, "/")
	}
	for _, s := range r.spans {
		p := pathOf(s)
		if rows[p] == nil {
			rows[p] = &row{path: p}
			order = append(order, p)
		}
		rows[p].n++
		rows[p].total += s.End - s.Start
		rows[p].self += s.Self
	}
	fmt.Fprintf(w, "%-52s %6s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, p := range order {
		rw := rows[p]
		fmt.Fprintf(w, "%-52s %6d %10.4f %10.4f\n", rw.path, rw.n, rw.total, rw.self)
	}
}
