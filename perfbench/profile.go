package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: samples with their stacks and labels, and nothing else.

// profSample is one CPU sample: its stack as function names, leaf
// first, with inlined frames expanded, its CPU nanoseconds and its
// "phase" label.
type profSample struct {
	stack []string
	ns    int64
	phase string
}

type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = pbVarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) []uint64 {
	if f.wire == 0 {
		return []uint64{f.v}
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := pbVarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// parseProfile decodes a CPU profile as written by pprof.StartCPUProfile.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcs := map[uint64]uint64{}  // function id -> name string index
	locs := map[uint64][]uint64{} // location id -> function ids, innermost first
	var sampleMsgs [][]byte
	for _, f := range top {
		switch f.num {
		case 2:
			sampleMsgs = append(sampleMsgs, f.b)
		case 4: // Location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var out []profSample
	for _, m := range sampleMsgs {
		fs, err := pbFields(m)
		if err != nil {
			return nil, err
		}
		var s profSample
		var vals []uint64
		for _, f := range fs {
			switch f.num {
			case 1:
				for _, loc := range pbInts(f) {
					for _, fn := range locs[loc] {
						s.stack = append(s.stack, str(funcs[fn]))
					}
				}
			case 2:
				vals = append(vals, pbInts(f)...)
			case 3: // Label
				ls, err := pbFields(f.b)
				if err != nil {
					return nil, err
				}
				var k, v uint64
				for _, l := range ls {
					switch l.num {
					case 1:
						k = l.v
					case 2:
						v = l.v
					}
				}
				if str(k) == "phase" {
					s.phase = str(v)
				}
			}
		}
		if len(vals) > 0 {
			s.ns = int64(vals[len(vals)-1])
		}
		out = append(out, s)
	}
	return out, nil
}

const modulePrefix = "rocesim/internal/"

// layerOf names the rocesim/internal package a function belongs to, or
// "" for functions outside the simulator.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// attribute charges a sample to the innermost simulator or benchmark
// frame on its stack, so runtime work (map hashing, malloc, GC assist)
// counts against the layer that caused it, and the tracer's own
// callbacks count as "bench". Samples with neither belong to the Go
// runtime ("runtime").
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// profileLayers are the per-layer CPU shares the traced run reports;
// samples in any other simulator package count as "other".
var profileLayers = []string{
	"sim", "core", "topology", "fabric", "buffer", "link", "pfc", "nic", "packet",
	"transport", "dcqcn", "irn", "workload", "monitor", "stats", "telemetry", "flighttrace",
	"experiments", "bench", "runtime", "other",
}

// profileSummary is what the traced run reads off its CPU profile.
type profileSummary struct {
	totalNS    int64
	layerNS    map[string]int64
	setupNS    int64
	routeAddNS int64 // set-up samples with a route-table insert on the stack
	runNS      int64
	runSimNS   int64 // run samples charged to internal/sim
}

func summarize(samples []profSample) profileSummary {
	ps := profileSummary{layerNS: map[string]int64{}}
	known := map[string]bool{}
	for _, l := range profileLayers {
		known[l] = true
	}
	for _, s := range samples {
		l := attribute(s.stack)
		if !known[l] {
			l = "other"
		}
		ps.totalNS += s.ns
		ps.layerNS[l] += s.ns
		switch s.phase {
		case "setup":
			ps.setupNS += s.ns
			for _, fn := range s.stack {
				if fn == modulePrefix+"fabric.(*routeTable).add" {
					ps.routeAddNS += s.ns
					break
				}
			}
		case "run":
			ps.runNS += s.ns
			if l == "sim" {
				ps.runSimNS += s.ns
			}
		}
	}
	return ps
}

func (ps profileSummary) share(layer string) float64 {
	return ratio(float64(ps.layerNS[layer]), float64(ps.totalNS))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
