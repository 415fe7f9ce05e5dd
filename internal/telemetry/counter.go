package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CounterSet is a bag of named monotonic counters. Dimensioned counters
// use keys of the form "<base>_<dim>=<value>" (built by DimKey), e.g.
// "chunks_cache=ram" or "sessions_pop=003"; numeric dimension values are
// zero-padded so lexicographic key order matches numeric order and JSON
// output (sorted keys) is stable. Merging adds counts, so the result is
// independent of merge order.
type CounterSet struct {
	c map[string]uint64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{c: map[string]uint64{}} }

// Inc adds one to the named counter.
func (cs *CounterSet) Inc(key string) { cs.c[key]++ }

// AddN adds n to the named counter.
func (cs *CounterSet) AddN(key string, n uint64) { cs.c[key] += n }

// Get returns the counter's value (zero if never incremented).
func (cs *CounterSet) Get(key string) uint64 { return cs.c[key] }

// Merge adds o's counts into cs.
func (cs *CounterSet) Merge(o *CounterSet) {
	if o == nil {
		return
	}
	for k, v := range o.c {
		cs.c[k] += v
	}
}

// Map returns a copy of the counters.
func (cs *CounterSet) Map() map[string]uint64 {
	out := make(map[string]uint64, len(cs.c))
	for k, v := range cs.c {
		out[k] = v
	}
	return out
}

// DimKey builds the canonical dimensioned-counter key "<base>_<dim>=<value>".
func DimKey(base, dim, value string) string { return base + "_" + dim + "=" + value }

// IntDimKey is DimKey for integer dimension values, zero-padded to five
// digits so sorted keys are in numeric order.
func IntDimKey(base, dim string, value int) string {
	return DimKey(base, dim, fmt.Sprintf("%05d", value))
}

// keyMemo hands out the keys of one dimensioned counter family,
// "<base>_<dim>=<value>", building each with DimKey or IntDimKey the
// first time its value is seen and returning the same string after. The
// per-chunk fold then formats no key, and the counter map still holds
// exactly the keys DimKey and IntDimKey build.
type keyMemo struct {
	base, dim string
	byInt     map[int]string
	byStr     map[string]string
}

func newKeyMemo(base, dim string) keyMemo { return keyMemo{base: base, dim: dim} }

// intKey returns IntDimKey(base, dim, v).
func (m *keyMemo) intKey(v int) string {
	k, ok := m.byInt[v]
	if !ok {
		if m.byInt == nil {
			m.byInt = map[int]string{}
		}
		k = IntDimKey(m.base, m.dim, v)
		m.byInt[v] = k
	}
	return k
}

// strKey returns DimKey(base, dim, v).
func (m *keyMemo) strKey(v string) string {
	k, ok := m.byStr[v]
	if !ok {
		if m.byStr == nil {
			m.byStr = map[string]string{}
		}
		k = DimKey(m.base, m.dim, v)
		m.byStr[v] = k
	}
	return k
}

// DimCount is one (dimension value, count) row extracted from a counter
// map.
type DimCount struct {
	Value string
	N     uint64
}

// IntValue parses the dimension value as an integer (zero-padded values
// from IntDimKey parse cleanly). It returns -1 if the value is not
// numeric.
func (d DimCount) IntValue() int {
	v, err := strconv.Atoi(d.Value)
	if err != nil {
		return -1
	}
	return v
}

// CountersByDim extracts every counter of the form "<base>_<dim>=<value>"
// from a counter map, sorted by value so the output order is
// deterministic.
func CountersByDim(counters map[string]uint64, base, dim string) []DimCount {
	prefix := base + "_" + dim + "="
	var out []DimCount
	for k, n := range counters {
		if v, ok := strings.CutPrefix(k, prefix); ok {
			out = append(out, DimCount{Value: v, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
