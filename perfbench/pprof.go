package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileLayers lists the layers a CPU profile is folded into, in
// report order. Every sample lands in exactly one of them.
var profileLayers = []string{
	"netsim.sched", "netsim.link", "netem", "wire", "wire.simbackend", "tcp",
	"cc", "cubic", "core", "bbr", "obs", "workload", "runner", "experiments",
	"scenarios", "stats", "service", "confhash", "gc", "other",
}

// layerOf maps one Go function name to its layer; "" means the frame
// belongs to no layer and the caller keeps walking outward.
func layerOf(fn string) string {
	const prefix = "suss/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	switch pkg := rest[:dot]; {
	case pkg == "netsim":
		if strings.HasPrefix(rest, "netsim.(*Simulator).") {
			return "netsim.sched"
		}
		return "netsim.link"
	case pkg == "service/confhash":
		return "confhash"
	case pkg == "wire/simbackend":
		return "wire.simbackend"
	case strings.HasPrefix(pkg, "wire/"):
		return "wire"
	default:
		for _, l := range profileLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
}

// isGCFrame reports runtime frames that do garbage-collector work:
// background and assist marking, sweeping and scavenging.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile attributes each sample of a pprof CPU profile to a layer:
// "gc" when any frame does GC work, else the innermost suss/internal
// frame's layer, else "other". It returns sample counts per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []pbSample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fns, err := decodeLocation(b)
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i := funcs[fid]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "other"
		found := false
	walk:
		for _, lid := range s.locs {
			for _, fid := range locs[lid] {
				fn := name(fid)
				if isGCFrame(fn) {
					layer = "gc"
					break walk
				}
				if l := layerOf(fn); l != "" && !found {
					layer, found = l, true
				}
			}
		}
		out[layer] += s.values[0]
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	err := pbFields(b, func(f int, v uint64, packed []byte) error {
		switch f {
		case 1:
			if packed != nil {
				return pbVarints(packed, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2:
			if packed != nil {
				return pbVarints(packed, func(x uint64) { s.values = append(s.values, int64(x)) })
			}
			s.values = append(s.values, int64(v))
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := pbFields(b, func(f int, v uint64, line []byte) error {
		switch f {
		case 1:
			id = v
		case 4:
			return pbFields(line, func(lf int, lv uint64, _ []byte) error {
				if lf == 1 {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks one protobuf message, calling fn with the field number
// and either the varint value (wire type 0) or the bytes (wire type 2).
// Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
	}
	return nil
}

func pbVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint; n == 0 means truncated input.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
