package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// simLayers are the simulator packages (under dynaspam/internal/) that
// are host layers of their own.
var simLayers = []string{"ooo", "core", "mapper", "fabric", "tcache", "cfgcache", "cache", "branch", "interp"}

// hostLayers are the layers host CPU time is folded into, in report
// order. Each is reported as host.<layer>_share.
var hostLayers = append(slices.Clone(simLayers), "runtime", "jobs", "other")

// serviceLayer lists the packages folded into the "jobs" layer: the job
// plane itself and the service code it runs on (HTTP, JSON, journal and
// state-file I/O). Everything else outside the simulator's packages and
// the Go runtime is "other".
var serviceLayer = []string{
	"dynaspam/internal/jobs", "dynaspam/internal/runner", "dynaspam/internal/spans",
	"dynaspam/internal/telemetry", "net", "encoding/json", "syscall", "internal/poll", "os",
}

// layerOf maps a fully qualified function name, as a pprof profile spells
// it, to its host layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "dynaspam/internal/"):
		if name := strings.TrimPrefix(pkg, "dynaspam/internal/"); slices.Contains(simLayers, name) {
			return name
		}
	}
	for _, p := range serviceLayer {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return "jobs"
		}
	}
	return "other"
}

// packageOf strips the symbol from a function name:
// "dynaspam/internal/ooo.(*CPU).issue" → "dynaspam/internal/ooo".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile decodes a gzipped pprof CPU profile and returns each host
// layer's share of the sampled CPU time, charging every sample to the
// layer of its leaf function (self time). It also returns the total
// sampled CPU time in seconds.
func foldProfile(gz []byte) (shares map[string]float64, cpuSeconds float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds is the last sample type
		layer := "other"
		if len(s.locs) > 0 {
			layer = layerOf(p.leafName(s.locs[0]))
		}
		byLayer[layer] += v
		total += v
	}
	shares = make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, float64(total) / 1e9, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// leafName returns the innermost function name at a location.
func (p *profile) leafName(loc uint64) string {
	if idx, ok := p.funcName[p.locFunc[loc]]; ok && idx >= 0 && idx < int64(len(p.strings)) {
		return p.strings[idx]
	}
	return ""
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value (wire type 0) or
// a length-delimited payload (wire type 2).
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields splits a protobuf message into its fields. Fixed-width wire
// types are skipped; pprof profiles use none the fold needs.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes a protobuf varint; n <= 0 means malformed input.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// decodeProfile parses the samples, locations, functions and string
// table of an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locFunc: make(map[uint64]uint64), funcName: make(map[uint64]int64)}
	for _, f := range fields {
		switch f.num {
		case 2: // sample
			sf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, g := range sf {
				switch g.num {
				case 1:
					if s.locs, err = varints(s.locs, g); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(vals, g); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, g := range lf {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.v
				case g.num == 4 && g.wire == 2 && !haveLine:
					// The first line is the innermost of any inlined frames.
					linef, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range linef {
						if h.num == 1 && h.wire == 0 {
							fn = h.v
						}
					}
					haveLine = true
				}
			}
			p.locFunc[id] = fn
		case 5: // function
			ff, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range ff {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.v
				case g.num == 2 && g.wire == 0:
					name = int64(g.v)
				}
			}
			p.funcName[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(f.data))
		}
	}
	return p, nil
}
