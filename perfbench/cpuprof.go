package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuLayers are the spritefs/internal packages that get their own
// cpu.<pkg> share; samples in any other package land in cpu.other.
var cpuLayers = []string{
	"analysis", "client", "cluster", "consistency", "core", "fscache", "metrics",
	"netsim", "replay", "scale", "server", "sim", "stats", "trace", "vm", "workload",
}

// cpuBucket names the layer a leaf function's flat samples count toward.
func cpuBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "spritefs/internal/"); ok {
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		if slices.Contains(cpuLayers, pkg) {
			return pkg
		}
		return "other"
	}
	// The scheduler, GC, allocator, maps (internal/runtime/maps since
	// Go 1.24) and the assembly helpers the runtime calls.
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/", "internal/bytealg.", "gcWriteBarrier"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// cpuShares reads a gzipped pprof CPU profile and returns each bucket's
// share of the flat CPU time (leaf frame of every sample, inlined frames
// resolved to the innermost function). The shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		leafFn  = map[uint64]uint64{} // location id -> innermost function id
		samples []struct {
			loc uint64
			val int64
		}
	)
	err = pbFields(raw, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := pbFields(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					locs, err = pbVarints(locs, w, v, d)
				case 2:
					vals, err = pbVarints(vals, w, v, d)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				// The last value is CPU nanoseconds (after the sample count).
				samples = append(samples, struct {
					loc uint64
					val int64
				}{locs[0], int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := pbFields(data, func(f, w int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && first: // first Line is the innermost inlined frame
					first = false
					return pbFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if fn, ok := leafFn[s.loc]; ok {
			if idx, ok := funcs[fn]; ok && idx >= 0 && int(idx) < len(strs) {
				name = strs[idx]
			}
		}
		shares[cpuBucket(name)] += float64(s.val)
		total += float64(s.val)
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and the varint/fixed value or the
// length-delimited payload.
func pbFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends a repeated varint field's values, packed or not.
func pbVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
