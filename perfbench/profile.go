package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuModules are the layers whose share of CPU the traced run reports.
var cpuModules = []string{
	"sim", "simnet", "stream", "engine", "serving", "cluster", "hostmem",
	"gpumem", "trace", "monitor", "metrics", "forecast", "capacity", "runtime",
}

// cpuShares reads a CPU profile (pprof's gzipped protocol buffer) and
// returns each module's share of the sampled CPU time (see moduleOf).
// Standard-library work such as container/heap is charged to the module
// that called it; allocation and garbage collection are charged to
// "runtime".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  [][]uint64              // location ids, leaf first
		weights  []int64                 // each sample's last value: CPU ns
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return packed(b, v, func(x uint64) { locs = append(locs, x) })
				case 2:
					return packed(b, v, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, locs)
				weights = append(weights, vals[len(vals)-1])
			}
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(num int, v uint64, _ []byte) error {
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
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		i, ok := funcName[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	shares := map[string]float64{}
	var total float64
	for si, locs := range samples {
		w := float64(weights[si])
		total += w
		shares[moduleOf(locs, locFuncs, name)] += w
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// moduleOf attributes one sample's stack (leaf first) to a module: to
// "runtime" when it is allocating or collecting garbage before any
// deepplan frame is reached, else to the innermost deepplan/internal
// package, else to "runtime" for other runtime work (scheduling) or
// "other".
func moduleOf(locs []uint64, locFuncs map[uint64][]uint64, name func(uint64) string) string {
	leafRuntime := false
	for depth, loc := range locs {
		for i, fn := range locFuncs[loc] {
			sym := name(fn)
			pkg := packageOf(sym)
			if depth == 0 && i == 0 {
				leafRuntime = pkg == "runtime"
			}
			if pkg == "runtime" && memoryManagement(sym) {
				return "runtime"
			}
			if mod, ok := strings.CutPrefix(pkg, "deepplan/internal/"); ok {
				return mod
			}
		}
	}
	if leafRuntime {
		return "runtime"
	}
	return "other"
}

// memoryManagement reports whether a runtime function allocates or runs
// the garbage collector.
func memoryManagement(sym string) bool {
	for _, p := range []string{"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.greyobject"} {
		if strings.HasPrefix(sym, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a symbol such as
// "deepplan/internal/sim.(*Simulator).Step".
func packageOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// walk calls fn for every field of a protocol-buffer message: v carries a
// varint's value, b a length-delimited field's bytes.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return errTruncated
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field, which encoders may write packed
// (b holds the values) or as one value per field (v).
func packed(b []byte, v uint64, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
