package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Layers a CPU profile is split into. Every sample is charged to the
// innermost frame of a parastack/internal/<module> package (the last
// element of the package path, so diagnose/waitfor is "waitfor"); a
// stack with no such frame is charged to runtime.gc, runtime.sched or
// runtime.other. The shares therefore sum to 1.
var profileModules = []string{
	"bench", "chaos", "core", "detect", "diagnose", "waitfor",
	"experiment", "fault", "ledger", "model", "mpi", "noise", "obs",
	"paper", "results", "sched", "service", "sim", "stack", "stats",
	"sweep", "timeout", "topology", "workload",
}

const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketOther = "runtime.other"
)

func profileBuckets() []string {
	return append(append([]string(nil), profileModules...), bucketGC, bucketSched, bucketOther)
}

const internalPrefix = "parastack/internal/"

// tracedPass runs fn with span recording on and under a runtime/pprof
// CPU profile, and returns the profile's bytes.
func tracedPass(tr *tracer, name string, fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	tr.start(name)
	fn()
	tr.stop()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// cpuShares decodes a gzipped pprof profile and returns each bucket's
// share of the sampled CPU time.
func cpuShares(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range profileModules {
		known[m] = true
	}
	shares := map[string]float64{}
	for _, b := range profileBuckets() {
		shares[b] = 0
	}
	var total float64
	for _, s := range p.samples {
		w := float64(s.weight)
		total += w
		shares[classify(p, s.locs, known)] += w
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// classify picks a sample's bucket from its stack (leaf first).
func classify(p *profile, locs []uint64, known map[string]bool) string {
	var names []string
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			names = append(names, p.functions[fn])
		}
	}
	for _, name := range names {
		if m, ok := internalModule(name); ok {
			if known[m] {
				return m
			}
			return bucketOther
		}
	}
	for _, name := range names {
		if isGCFrame(name) {
			return bucketGC
		}
	}
	for _, name := range names {
		if isSchedFrame(name) {
			return bucketSched
		}
	}
	return bucketOther
}

// internalModule returns the module of a parastack/internal function
// name such as "parastack/internal/diagnose/waitfor.(*graph).add".
func internalModule(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.LastIndexByte(rest, '/'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest, true
}

func isGCFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.sweepone", "runtime._GC",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isSchedFrame(fn string) bool {
	switch fn {
	case "runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.goexit0", "runtime.gosched_m", "runtime.goschedImpl", "runtime.mstart",
		"runtime.mstart0", "runtime.mstart1", "runtime.sysmon", "runtime.stopm",
		"runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready",
		"runtime.gopark", "runtime.newproc", "runtime.newproc1", "runtime.execute",
		"runtime.runqsteal", "runtime.runqgrab", "runtime.handoffp", "runtime.exitsyscall",
		"runtime.entersyscall", "runtime.netpoll":
		return true
	}
	return false
}

// profile is the part of a pprof profile cpuShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]string   // function id → name
}

type sample struct {
	locs   []uint64
	weight int64
}

// parseProfile decodes the gzipped protocol-buffer profile that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			id, fns, err := parseLocation(b)
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for id, idx := range funcName {
		if idx < 0 || int(idx) >= len(strs) {
			return nil, fmt.Errorf("cpu profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	return p, nil
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var values []int64
	err := eachField(b, func(num int, wire int, v uint64, pb []byte) error {
		switch num {
		case 1:
			if wire == wireBytes {
				return eachVarint(pb, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2:
			if wire == wireBytes {
				return eachVarint(pb, func(x uint64) { values = append(values, int64(x)) })
			}
			values = append(values, int64(v))
		}
		return nil
	})
	// A CPU profile's values are [samples, cpu nanoseconds]; weigh by
	// time when present.
	switch {
	case len(values) >= 2:
		s.weight = values[1]
	case len(values) == 1:
		s.weight = values[0]
	}
	return s, err
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num int, wire int, v uint64, pb []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // line: innermost inlined function first
			return eachField(pb, func(num int, wire int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks one protocol-buffer message, calling fn with each
// field's number, wire type, and varint value or byte payload.
func eachField(b []byte, fn func(num int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
