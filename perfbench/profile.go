package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the traced run
// needs: per-sample CPU time and the function names along its stack,
// leaf first. The decoder reads the protobuf wire format directly so
// the benchmark needs no module beyond the standard library.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	cpuNS int64
	funcs []string // leaf first, inlined frames expanded
}

// parseCPUProfile decodes a (gzipped) pprof profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		valueTypes []int64 // string index of each sample value's type
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName   = map[uint64]int64{}    // function id → string index
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, typ)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) {
			continue
		}
		ps := profSample{cpuNS: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.funcs = append(ps.funcs, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varints arrive in v, length-delimited fields in b.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints reads a repeated varint field in either its packed or
// its one-value-per-field encoding (runtime/pprof writes both).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage extracts the import path from a symbol name such as
// "anongeo/internal/exp.(*Orchestrator[...]).runCell".
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// moduleOf maps an import path to its self-share bucket.
func moduleOf(pkg string) string {
	const internal = "anongeo/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		m := strings.TrimPrefix(pkg, internal)
		if strings.HasPrefix(m, "routing/") {
			m = strings.TrimPrefix(m, "routing/")
		}
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		return m
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// gcRoots are the runtime entry points of garbage-collection work; a
// sample with one of them on its stack is GC CPU.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
}

// shares returns each module's share of CPU self time and the share of
// samples doing garbage collection.
func (p *cpuProfile) shares() (self map[string]float64, gc float64) {
	self = map[string]float64{}
	var total, gcNS float64
	for _, s := range p.samples {
		ns := float64(s.cpuNS)
		total += ns
		if len(s.funcs) > 0 {
			self[moduleOf(funcPackage(s.funcs[0]))] += ns
		} else {
			self["other"] += ns
		}
		for _, f := range s.funcs {
			if gcRoots[f] {
				gcNS += ns
				break
			}
		}
	}
	for m := range self {
		self[m] = ratio(self[m], total)
	}
	return self, ratio(gcNS, total)
}
