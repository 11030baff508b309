package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerPackages maps the repository's packages on the hot pipeline to the
// layer their CPU time is charged to. The six secure-cache design packages
// are part of the securecache layer.
var layerPackages = map[string]string{
	"experiments": "experiments", "parexp": "parexp", "checkpoint": "checkpoint",
	"aes": "aes", "trace": "trace", "workloads": "workloads", "sim": "sim",
	"cache": "cache", "core": "core", "hierarchy": "hierarchy",
	"attacks": "attacks", "infotheory": "infotheory", "securecache": "securecache",
	"newcache": "securecache", "plcache": "securecache", "rpcache": "securecache",
	"nomo": "securecache", "scattercache": "securecache", "mirage": "securecache",
}

// layers lists the layers in report order.
var layers = []string{
	"experiments", "parexp", "checkpoint", "aes", "trace", "workloads", "sim",
	"cache", "securecache", "core", "hierarchy", "attacks", "infotheory",
}

// layerOf returns the layer a profiled function belongs to, or "" for code
// outside the layers (the runtime, the standard library, helper packages
// such as mem and rng, and this benchmark).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation; its shape can name other packages
	}
	const prefix = "randfill/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerPackages[rest]
}

// cpuByLayer accumulates CPU profile samples by layer. A sample is charged
// to the innermost frame that belongs to a layer, so runtime helpers
// (allocation, copying) count against the layer that called them; samples
// with no layer frame at all (GC workers, the scheduler) are "other".
type cpuByLayer struct {
	ns    map[string]int64
	total int64
}

// add folds one gzipped pprof CPU profile into the totals.
func (c *cpuByLayer) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	if c.ns == nil {
		c.ns = map[string]int64{}
	}
	funcLayer := make(map[uint64]string, len(p.funcName))
	for id, name := range p.funcName {
		funcLayer[id] = layerOf(name)
	}
	for _, s := range p.samples {
		v := s.values[len(s.values)-1] // cpu nanoseconds
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if l := funcLayer[fid]; l != "" {
					layer = l
					break frames
				}
			}
		}
		c.ns[layer] += v
		c.total += v
	}
	return nil
}

// share returns layer's fraction of all profiled CPU time.
func (c *cpuByLayer) share(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.ns[layer]) / float64(c.total)
}

// profile is the part of a pprof profile.proto message the aggregation
// reads: samples with their stacks, and each location's inlined functions.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a gzipped profile.proto (see
// github.com/google/pprof/proto/profile.proto) with the standard library.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	type funcRef struct{ id, name uint64 }
	var funcs []funcRef
	err = fields(raw, func(f uint64, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			var s sample
			err := fields(b, func(f uint64, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("sample without values")
			}
			p.samples = append(p.samples, s)
			return nil
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(f uint64, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f uint64, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f uint64, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs = append(funcs, funcRef{id, name})
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, f := range funcs {
		if f.name >= uint64(len(strs)) {
			return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", f.id, f.name, len(strs))
		}
		p.funcName[f.id] = strs[f.name]
	}
	return p, nil
}

// fields walks one protobuf message, calling f with each field number and
// either its varint value (b nil) or its length-delimited bytes.
func fields(msg []byte, f func(field, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field was not packed (b nil), every varint in b when it was.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes one base-128 varint, returning its length (0 if b is
// truncated or the value overflows).
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
