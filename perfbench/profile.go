package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileShares decodes a gzipped runtime/pprof CPU profile and splits
// its samples by layer. A sample goes to the innermost frame in one of
// the repo's modules (poddiagnosis/internal/<module>), so a module is
// charged for the standard-library and runtime code it calls, such as
// allocation; stacks with no such frame count as "runtime" when they run
// Go runtime code and as "other" otherwise. It returns sample weights
// (CPU nanoseconds) per layer and their total.
func profileShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	valueIdx := p.sampleTypes - 1 // cpu nanoseconds follow the sample count
	shares := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		v := s.values[valueIdx]
		total += v
		shares[p.layerOf(s.locations)] += v
	}
	return shares, total, nil
}

// layerOf attributes one stack (leaf first) to a layer: the innermost
// frame in one of the repo's modules, else "runtime" for stacks of the
// Go runtime alone (scheduler, timers, background GC), else "other".
func (p *profile) layerOf(locs []uint64) string {
	inRuntime := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.funcName[fn]
			if rest, ok := strings.CutPrefix(name, "poddiagnosis/internal/"); ok {
				if i := strings.IndexAny(rest, "/."); i > 0 {
					return rest[:i]
				}
			}
			if strings.HasPrefix(name, "runtime.") || strings.HasPrefix(name, "internal/runtime/") {
				inRuntime = true
			}
		}
	}
	if inRuntime {
		return "runtime"
	}
	return "other"
}

// profile is the part of a pprof Profile message the attribution needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]string
}

type sample struct {
	locations []uint64
	values    []int64
}

// decodeProfile reads the fields of perftools.profiles.Profile that the
// attribution uses: sample_type (1), sample (2), location (4), function
// (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := eachField(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, sb)
					s.locations = append(s.locations, ids...)
					return err
				case 2:
					vals, err := varints(w, v, sb)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f, w int, v uint64, sb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(sb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, f func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed or not.
func varints(wire int, v uint64, sub []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		sub = sub[n:]
	}
	return out, nil
}
