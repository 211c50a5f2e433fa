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

// Layer attribution of runtime/pprof profiles. A sample belongs to the
// layer of the frame nearest its leaf that lies in a layer package; frames
// of helper packages and of the standard library fold into that caller, so
// math/rand seeding under backoff.New under devlib lands in devlib. A
// sample with no layer frame at all (GC workers, the runtime's own
// goroutines) is the Go runtime's.

// layerOf maps package path prefixes to layers; the longest match wins.
var layerOf = map[string]string{
	"kubeshare/internal/devlib":         "devlib",
	"kubeshare/internal/gpusim":         "gpusim",
	"kubeshare/internal/cuda":           "gpusim",
	"kubeshare/internal/sim":            "sim",
	"kubeshare/internal/core/schedfw":   "schedfw",
	"kubeshare/internal/kube/apiserver": "apiserver",
	"kubeshare/internal/kube/store":     "store",
	"kubeshare/internal/core":           "core",
	"kubeshare/internal/kube":           "kubelet",
	"kubeshare/internal/obs":            "obs",
	"main":                              "bench",
}

// helpers are module packages that are no layer of their own: their
// frames fold into the calling layer.
var helpers = []string{
	"kubeshare/internal/simrand",
	"kubeshare/internal/kube/backoff",
	"kubeshare/internal/kube/api",
	"kubeshare/internal/kube/labels",
	"kubeshare/internal/metrics",
	"kubeshare/internal/workload",
	"kubeshare/internal/chaos",
}

// goLayer collects samples with no layer frame.
const goLayer = "go"

// layers lists every layer in report order.
var layers = []string{"devlib", "gpusim", "sim", "schedfw", "apiserver", "store", "core", "kubelet", "obs", "bench", goLayer}

// pkgOf extracts the package path from a Go symbol such as
// "kubeshare/internal/devlib.(*Frontend).acquireLease" or
// "kubeshare/internal/kube/apiserver.Client[go.shape.*uint8].Create".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// hasPathPrefix reports whether pkg is prefix or lies beneath it.
func hasPathPrefix(pkg, prefix string) bool {
	return pkg == prefix || strings.HasPrefix(pkg, prefix+"/")
}

// frameLayer returns the layer of one function, or "" for helper and
// standard-library frames.
func frameLayer(fn string) string {
	pkg := pkgOf(fn)
	for _, h := range helpers {
		if hasPathPrefix(pkg, h) {
			return ""
		}
	}
	best, layer := -1, ""
	for prefix, l := range layerOf {
		if hasPathPrefix(pkg, prefix) && len(prefix) > best {
			best, layer = len(prefix), l
		}
	}
	return layer
}

// stackLayer attributes a leaf-first stack of function names.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return goLayer
}

// attribution is one profile value summed per layer.
type attribution struct {
	byLayer map[string]int64
	total   int64 // summed over every sample, independently of the layers
}

// attribute decodes a gzipped pprof profile and sums the sample value of
// the given type ("cpu", "alloc_space", ...) per layer. It fails when the
// per-layer sums do not add up to the profile's total.
func attribute(gz []byte, valueType string) (attribution, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	idx := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return attribution{}, fmt.Errorf("profile has no %q samples (types %v)", valueType, p.sampleTypes)
	}
	a := attribution{byLayer: make(map[string]int64)}
	var stack []string
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return a, errors.New("profile sample is missing values")
		}
		stack = stack[:0]
		for _, id := range s.locations {
			stack = append(stack, p.locations[id]...)
		}
		v := s.values[idx]
		a.byLayer[stackLayer(stack)] += v
		a.total += v
	}
	var sum int64
	for _, v := range a.byLayer {
		sum += v
	}
	if sum != a.total {
		return a, fmt.Errorf("layer sums %d != profile total %d", sum, a.total)
	}
	return a, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes a gzipped profile.proto message with the standard
// library only.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []int64                 // sample_type → string index
		locLines  = map[uint64][]uint64{} // location → function ids
		funcNames = map[uint64]int64{}    // function → string index
		p         = &profile{locations: map[uint64][]string{}}
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(wire, v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return repeated(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
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
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
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
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

// fields walks the protobuf fields of one message. For varint fields v is
// the value; for length-delimited fields b is the payload; fixed-width
// fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either packed or unpacked
// encoding.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
