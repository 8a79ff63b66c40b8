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

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "ldsprefetch/internal/"

// layerOfPackage maps a package below repoPrefix to the layer its CPU time is
// charged to. Packages not listed are charged to "other".
var layerOfPackage = map[string]string{
	"cpu":                 "cpu",
	"cpu/ooo":             "cpu_ooo",
	"memsys":              "memsys",
	"cache":               "cache",
	"mem":                 "mem",
	"trace":               "trace",
	"dram":                "dram",
	"stream":              "stream",
	"core":                "core",
	"prefetch":            "prefetch",
	"heap64":              "heap64",
	"sim/engine":          "engine",
	"sim":                 "sim",
	"sim/registry":        "sim",
	"workload":            "workload",
	"workload/serverload": "workload",
	"profiling":           "profiling",
	"jobs":                "jobs",
	"exp":                 "exp",
}

// selfLayers lists every layer a self-time share is reported for, in the
// order of the summary's documentation; "other" collects the rest.
var selfLayers = []string{"cpu", "cpu_ooo", "memsys", "cache", "mem", "trace", "dram",
	"stream", "core", "prefetch", "heap64", "engine", "workload", "profiling", "jobs",
	"exp", "sim", "other"}

// gcFuncs are the runtime functions whose presence anywhere on a stack marks
// the sample as garbage-collector work.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.gcDrain", "runtime.markroot", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.gcStart"}

// layerOfStack charges one sample to a layer: "gc" when any frame is
// garbage-collector work, otherwise the layer of the innermost frame in a
// simulator package, otherwise "other". So runtime.memmove called from a
// memory-image clone is charged to mem. frames run innermost first.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFuncs {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, repoPrefix)
		if !ok {
			continue
		}
		// The package path ends at the first dot after its last slash.
		pkgEnd := strings.LastIndex(rest, "/") + 1
		if dot := strings.Index(rest[pkgEnd:], "."); dot >= 0 {
			pkgEnd += dot
		} else {
			pkgEnd = len(rest)
		}
		if l, ok := layerOfPackage[rest[:pkgEnd]]; ok {
			return l
		}
		return "other"
	}
	return "other"
}

// addLayerTimes decodes a gzipped CPU profile as runtime/pprof writes it
// and adds each layer's sampled CPU nanoseconds to byLayer.
func addLayerTimes(byLayer map[string]int64, profile []byte) error {
	p, err := parseProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.funcName[fn])
			}
		}
		byLayer[layerOfStack(frames)] += s.value
	}
	return nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples []sample
	// locFuncs maps a location to its function IDs, innermost (inlined)
	// first.
	locFuncs map[uint64][]uint64
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (or sample count, if that is all there is)
}

// parseProfile decodes the protocol-buffer fields of profile.proto that
// attribution uses: Profile.sample (2), .location (4), .function (5) and
// .string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					return appendUints(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
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
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcNameIdx {
		if si >= uint64(len(strs)) {
			return nil, errors.New("profile: function name out of range")
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// eachField calls f for every field of the protocol-buffer message buf: v
// carries varint and fixed-width values, b the bytes of length-delimited
// fields.
func eachField(buf []byte, f func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field's values, packed (b) or not
// (v).
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
