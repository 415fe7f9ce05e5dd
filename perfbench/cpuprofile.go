package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages CPU samples are charged to, as cpu.<pkg>_s.
// Every sample goes to the innermost vidperf/internal/<pkg> frame on its
// stack (after cpuAlias); internal packages outside this list go to
// "other", and samples with no internal frame (GC workers, the
// scheduler, the benchmark's own code) go to "runtime".
var cpuLayers = []string{
	"tcpmodel", "netpath", "player", "backend", "cdn", "cache", "catalog",
	"sim", "stats", "session", "telemetry", "diagnose", "workload", "core",
	"figures", "serve", "runtime", "other",
}

// cpuAlias folds helper packages into the layer that owns them.
var cpuAlias = map[string]string{
	"abr":         "player",
	"clientstack": "player",
	"analysis":    "figures",
}

const internalPrefix = "vidperf/internal/"

// cpuByLayer decodes a runtime/pprof CPU profile (gzipped protobuf) and
// returns CPU seconds per layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, locID := range s.locs { // leaf first
			for _, fnID := range p.locLines[locID] { // innermost inlined frame first
				name := p.strings[p.funcName[fnID]]
				if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
					pkg := rest[:strings.IndexAny(rest+".", "./")]
					if a, ok := cpuAlias[pkg]; ok {
						pkg = a
					}
					if !known[pkg] {
						pkg = "other"
					}
					layer = pkg
					break stack
				}
			}
		}
		out[layer] += float64(s.cpuNS) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function ID → string index
	locLines map[uint64][]uint64 // location ID → function IDs, innermost first
	samples  []sample
	cpuIndex int
}

type sample struct {
	locs  []uint64
	cpuNS int64
}

// decodeProfile parses the fields of profile.proto used here: sample_type
// (1), sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locLines: map[uint64][]uint64{}, cpuIndex: -1}
	var sampleTypes [][2]int64 // (type, unit) string indexes
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var raws []rawSample
	err := walk(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			var vt [2]int64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2:
			var rs rawSample
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(v, d, func(x uint64) { rs.locs = append(rs.locs, x) })
				case 2:
					return repeated(v, d, func(x uint64) { rs.values = append(rs.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return walk(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, vt := range sampleTypes {
		if vt[0] < int64(len(p.strings)) && p.strings[vt[0]] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("no cpu sample type")
	}
	for _, rs := range raws {
		if p.cpuIndex < len(rs.values) {
			p.samples = append(p.samples, sample{locs: rs.locs, cpuNS: rs.values[p.cpuIndex]})
		}
	}
	for id, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d: bad name index %d", id, name)
		}
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v carries a
// varint's value, data a length-delimited field's bytes (wire type 2).
// Fixed-width fields are skipped.
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n == 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated handles a repeated varint field in either encoding: one value
// (data nil) or a packed run.
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n == 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its value and length
// (0 when malformed).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
