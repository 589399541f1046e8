package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// hostGroups are the host.*_pct buckets a CPU profile's flat samples are
// attributed to, by the package of the sampled (innermost) function.
var hostGroups = []string{"sim", "sched", "gc", "mem", "mesh", "am", "psync", "apps", "machine", "obs", "predict", "other"}

// profileShares reads a CPU profile written by runtime/pprof and returns
// each host group's share of flat CPU time, in percent.
func profileShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	flat, err := flatByFunction(data)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	var total int64
	byGroup := make(map[string]int64)
	for fn, v := range flat {
		byGroup[hostGroup(fn)] += v
		total += v
	}
	shares := make(map[string]float64, len(hostGroups))
	for _, g := range hostGroups {
		shares["host."+g+"_pct"] = 100 * ratio(float64(byGroup[g]), float64(total))
	}
	return shares, nil
}

// hostGroup maps a Go symbol name to its host group.
func hostGroup(fn string) string {
	// The package path ends at the first dot after its last slash; type
	// arguments and receivers, which may hold other paths, come later.
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		if isMemoryManagement(fn) {
			return "gc"
		}
		return "sched" // scheduler, channels, locks, copying
	case pkg == "repro/internal/workload" || strings.HasPrefix(pkg, "repro/internal/apps"):
		return "apps"
	case strings.HasPrefix(pkg, "repro/internal/"):
		g := strings.TrimPrefix(pkg, "repro/internal/")
		for _, known := range hostGroups {
			if g == known {
				return g
			}
		}
	}
	return "other"
}

// gcMarkers are substrings of runtime function names that allocate or
// collect memory.
var gcMarkers = []string{
	"gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "malloc", "newobject",
	"makeslice", "growslice", "mspan", "mcache", "mcentral", "mheap", "heapBits",
	"greyobject", "findObject", "wbBuf", "WriteBarrier", "memclr", "nextFree",
	"typePointers", "spanOf", "pageAlloc", "pageCache", "arena", "bulkBarrier", "Assist",
}

func isMemoryManagement(fn string) bool {
	for _, m := range gcMarkers {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}

// flatByFunction decodes an uncompressed pprof protobuf and sums each
// sample's last value (CPU nanoseconds for a CPU profile) under the
// function of its innermost frame.
func flatByFunction(data []byte) (map[string]int64, error) {
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = make(map[uint64]uint64) // location id -> innermost function id
		funcName = make(map[uint64]uint64) // function id -> string table index
		strs     []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []uint64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flat := make(map[string]int64)
	for _, s := range samples {
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			flat[strs[i]] += s.value
		}
	}
	return flat, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b. Fixed-width fields,
// which the profile fields read here never use, are skipped.
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field (b nil) or packed into one payload.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
