package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone, and folds each sample
// onto the repository module that did the work.

// profSample is one decoded sample: its stack as function names, innermost
// first (inlined frames expanded), and its CPU time in nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		period    int64
		valueIdx  = -1 // index of the cpu/nanoseconds value
		typeNames [][2]int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeNames = append(typeNames, t)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					for _, x := range appendVarints(nil, w, v, pb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range typeNames {
		if int(t[0]) < len(strs) && strs[t[0]] == "cpu" {
			valueIdx = i
		}
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		switch {
		case valueIdx >= 0 && valueIdx < len(s.values):
			ps.ns = s.values[valueIdx]
		case len(s.values) > 0:
			ps.ns = s.values[0] * period
		}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.stack = append(ps.stack, str(funcName[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (wire type 2) or as a single value.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint and
// fixed values in v and length-delimited payloads in b.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
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

// foldModule attributes one stack (innermost frame first) to a layer: the
// innermost frame of a repository module names the module, so runtime work
// such as memmove under xen.CopyGrant counts as xen, and the innermost
// frame of the benchmark's own code (package main, e.g. a completion
// callback checking data) counts as harness. Stacks with neither go to the
// garbage collector's background workers (runtime.gc) or to everything
// else (runtime.other).
func foldModule(stack []string) string {
	const prefix = "kite/internal/"
	for _, f := range stack {
		if strings.HasPrefix(f, prefix) {
			mod := f[len(prefix):]
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			return mod
		}
		// The harness is package main in its binary and kite/perfbench in
		// its test binary.
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "kite/perfbench.") {
			return "harness"
		}
	}
	for _, f := range stack {
		if f == "runtime.gcBgMarkWorker" {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// foldProfile sums sample time per layer, in milliseconds.
func foldProfile(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[foldModule(s.stack)] += float64(s.ns) / 1e6
	}
	return out
}
