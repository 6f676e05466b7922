package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers are the cpu_share rows: the simulator's packages, then
// goruntime, which takes every sample whose leaf is anywhere else — the Go
// scheduler, the collector, memmove, the standard library and the
// benchmark's own payload generation and checks. The rows therefore sum to
// 1 whenever every sample resolves to a function.
var profileLayers = []string{"des", "model", "switchfab", "ib", "regcache", "rdmachan", "shmchan",
	"ch3", "transport", "adi3", "mpi", "nas", "cluster", "goruntime"}

const internalPrefix = "repro/internal/"

// layerOf maps a fully qualified Go function name to its cpu_share row.
func layerOf(function string) string {
	if rest, ok := strings.CutPrefix(function, internalPrefix); ok {
		if dot := strings.IndexByte(rest, '.'); dot > 0 {
			pkg := rest[:dot]
			for _, l := range profileLayers {
				if l == pkg {
					return l
				}
			}
		}
	}
	return "goruntime"
}

// cpuShares reduces a runtime/pprof CPU profile (gzipped profile.proto) to
// the share of flat samples per layer: each sample is charged to the
// package of its leaf function. Samples whose leaf has no function stay
// uncharged, so the shares then sum to less than 1 and the caller's check
// catches it.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		total += float64(s.count)
		fn, ok := p.leafFunc[s.leaf]
		if !ok {
			continue
		}
		counts[layerOf(fn)] += float64(s.count)
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for l := range counts {
		counts[l] /= total
	}
	return counts, nil
}

// profile is the little of profile.proto the attribution needs.
type profile struct {
	samples  []profSample
	leafFunc map[uint64]string // location id → name of its innermost function
}

type profSample struct {
	leaf  uint64 // location_id[0]
	count int64  // value[0]: samples
}

// Field numbers of profile.proto.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(raw []byte) (*profile, error) {
	var (
		p        = &profile{leafFunc: map[uint64]string{}}
		strs     []string
		locFunc  = map[uint64]uint64{} // location id → function id of line[0]
		funcName = map[uint64]int64{}  // function id → string index
	)
	err := protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			var locs, vals []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf, s.count = locs[0], int64(vals[0])
				p.samples = append(p.samples, s)
			}
		case profLocationField:
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // line[0] is the innermost (inlined) frame
					haveLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLine {
				locFunc[id] = fn
			}
		case profFunctionField:
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case profStringField:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fn := range locFunc {
		if i, ok := funcName[fn]; ok && i >= 0 && int(i) < len(strs) {
			p.leafFunc[loc] = strs[i]
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's occurrence: one value
// when unpacked (b nil), the packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// protoFields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the bytes (wire type 2); fixed-width fields
// are skipped.
func protoFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
