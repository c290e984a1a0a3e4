package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the traced run's CPU sampling rate, five times the
// runtime/pprof default so a single pass gathers thousands of samples.
// runtime/pprof then warns on stderr that the rate was already set and
// writes the default period into the profile header; shares are
// unaffected, absolute times read from the raw profile are 5x too low.
const profileHz = 500

// cpuModules are the modules a self-time share is reported for. A
// sample is charged to its leaf frame's module; a leaf in any other
// package (math, sort, sync, ...) is charged to the nearest caller in
// a listed module, so gp owns the math.Exp its kernel calls, while
// runtime and fmt/strconv leaves keep their own shares. Samples with
// no listed frame at all fold into "other".
var cpuModules = []string{
	"bo", "gp", "linalg", "optimize", "server", "latsim", "workload", "isolation",
	"qos", "resource", "profile", "cluster", "fleet", "core", "telemetry", "par",
	"fmt_strconv", "runtime", "other",
}

// cpuHotspots are the functions a cumulative share is reported for:
// the hot spots the ROADMAP names, keyed by metric name.
var cpuHotspots = []struct{ metric, fn string }{
	{"cluster.assess", "clite/internal/cluster.(*Scheduler).assess"},
	{"profile.Key", "clite/internal/profile.Key"},
	{"profile.Admissible", "clite/internal/profile.(*Cache).Admissible"},
	{"profile.LookupNear", "clite/internal/profile.(*Cache).LookupNear"},
	{"optimize.gradient", "clite/internal/optimize.(*Problem).gradient"},
	{"gp.PredictBatch", "clite/internal/gp.(*GP).PredictBatch"},
}

// cpuFold is a CPU profile folded into per-module self samples and
// per-function cumulative samples.
type cpuFold struct {
	total int64
	self  map[string]int64
	cum   map[string]int64
}

// profiled runs fn under the CPU profiler, keeps the raw profile in
// cfg.artifacts when set, and returns the folded profile.
func profiled(cfg config, fn func() error) (*cpuFold, error) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if cfg.artifacts != "" {
		if err := os.MkdirAll(cfg.artifacts, 0o755); err != nil {
			return nil, fmt.Errorf("keeping CPU profile: %w", err)
		}
		name := filepath.Join(cfg.artifacts, fmt.Sprintf("%s-seed%d.cpu.pprof", cfg.workload, cfg.seed))
		if err := os.WriteFile(name, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("keeping CPU profile: %w", err)
		}
	}
	return foldProfile(buf.Bytes())
}

// moduleOf maps a function's symbol name to the module its self time
// is charged to.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "clite/internal/"):
		mod := strings.TrimPrefix(pkg, "clite/internal/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "fmt" || pkg == "strconv":
		return "fmt_strconv"
	}
	return "other"
}

// foldProfile decodes a gzipped profile.proto CPU profile and folds
// it. It reads only what the fold needs: samples (location ids and the
// sample count), locations (their inlined function chains, leaf
// first), functions (their names) and the string table.
func foldProfile(gz []byte) (*cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]uint64{}
	var strs []string
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			values := 0
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	name := func(fid uint64) string {
		if i := funcName[fid]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	fold := &cpuFold{self: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range samples {
		fold.total += s.count
		owner := ""
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				fn := name(fid)
				if owner == "" || owner == "other" {
					owner = moduleOf(fn)
				}
				if !seen[fn] {
					seen[fn] = true
					fold.cum[fn] += s.count
				}
			}
		}
		if owner == "" {
			owner = "other"
		}
		fold.self[owner] += s.count
	}
	return fold, nil
}

// protoFields walks the top-level fields of one protobuf message,
// calling fn with the field number and either the varint/fixed value
// or the length-delimited payload.
func protoFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
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
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether the
// encoder packed them (payload) or not (v).
func appendPacked(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
