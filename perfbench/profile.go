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

// layers are the buckets profile samples are attributed to: the
// simulator's internal packages the benchmark reports by name, "other"
// for the remaining internal packages, and "runtime" for samples with no
// internal frame at all (GC, scheduler, the benchmark's own code).
var layers = []string{
	"sim", "medium", "phy", "frame", "mac", "network", "routing", "topology",
	"tcp", "udp", "flood", "traffic", "core", "experiments", "runner",
	"telemetry", "other", "runtime", // these two last: layerOf skips them
}

const internalPrefix = "aggmac/internal/"

// layerOf maps a fully qualified function name to its layer, or reports
// false when the function is outside the simulator's internal packages.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers[:len(layers)-2] {
		if l == rest {
			return l, true
		}
	}
	return "other", true
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	sampleTypes []string // sample value names, e.g. "cpu", "alloc_space"
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type pbSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a gzip-compressed pprof protobuf as runtime/pprof
// writes it (see github.com/google/pprof/proto/profile.proto).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx []int64
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(i))
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// attribute sums the named sample value per layer. Each sample goes to
// the innermost internal frame on its stack, inlined frames included;
// samples with no internal frame go to "runtime".
func (p *profile) attribute(valueType string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q values (has %v)", valueType, p.sampleTypes)
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile sample is missing values")
		}
		out[p.sampleLayer(s)] += s.values[vi]
	}
	return out, nil
}

func (p *profile) sampleLayer(s pbSample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if l, ok := layerOf(p.str(p.functions[fn])); ok {
				return l
			}
		}
	}
	return "runtime"
}

// eachField walks the top-level fields of a protobuf message, handing
// varint fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data set) or
// not (one value v per occurrence).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
