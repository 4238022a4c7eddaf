package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"

	"dvmc"
)

// modules are the layers self time and allocations are attributed to,
// by the package of a profile frame. internal/oracle/stream counts as
// oracle; runtime frames split into the collector and the rest; every
// other package (the standard library, telemetry, span, this benchmark)
// is "other".
var modules = []string{
	"sim", "proc", "coherence", "network", "core", "safetynet", "workload",
	"mem", "hash", "trace", "oracle", "consistency", "fuzz", "dvmc",
	"runtime.gc", "runtime.other", "other",
}

// perLayer lists every per-layer metric a traced run reports besides the
// per-module ones, with its unit. A workload that makes no such call or
// has no such count reports 0.
var perLayer = []struct{ name, unit string }{
	{"dvmc.new_system_ms", "ms"},
	{"fuzz.derive_us", "us"},
	{"trace.decode_ns_per_event", "ns"},
	{"oracle.feed_ns_per_event", "ns"},
	{"proc.ops_retired", "count"},
	{"proc.squash_ratio", "ratio"},
	{"coherence.l1_misses", "count"},
	{"coherence.l2_misses", "count"},
	{"network.link_bytes", "bytes"},
	{"core.informs", "count"},
	{"core.replay_loads", "count"},
	{"safetynet.checkpoints", "count"},
	{"trace.events", "count"},
	{"oracle.max_frontier", "count"},
}

// layerProbe is the traced run's instrument: a CPU profile of one timed
// stretch, an exact allocation profile of a fixed amount of the same
// work, and the timed calls and work counts the workload hands it.
type layerProbe struct {
	cpu          bytes.Buffer
	self, allocs map[string]float64
	vals         map[string]float64
	overheadNote string
	err          error
}

func newLayerProbe() *layerProbe { return &layerProbe{vals: map[string]float64{}} }

// profileCPU runs fn under the CPU profiler and attributes its samples
// to modules by leaf frame.
func (p *layerProbe) profileCPU(fn func()) {
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		p.err = err
		return
	}
	fn()
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.self = map[string]float64{}
	vi := prof.valueIndex("cpu")
	for _, s := range prof.samples {
		p.self[prof.leafModule(s.locs)] += float64(s.values[vi]) / 1e6
	}
}

// profileAllocs runs fn with every allocation sampled and counts the
// objects it allocated by module. Sampling every allocation slows fn
// several times over, so fn is a fixed amount of work, not a timed one.
func (p *layerProbe) profileAllocs(fn func()) {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = rate }()
	before, err := allocsByModule()
	if err != nil {
		p.err = err
		return
	}
	fn()
	after, err := allocsByModule()
	if err != nil {
		p.err = err
		return
	}
	p.allocs = map[string]float64{}
	for m, n := range after {
		p.allocs[m] = n - before[m]
	}
}

// overhead records the traced stretch's rate against the untraced
// stretch before it.
func (p *layerProbe) overhead(untraced, traced float64, what string) {
	p.overheadNote = fmt.Sprintf("tracing overhead: %s %.4g untraced, %.4g traced (%.1f%% slower)",
		what, untraced, traced, (untraced/traced-1)*100)
}

func (p *layerProbe) timed(name string, v float64) { p.vals[name] = v }

// workCounts records the simulated work between two Results.
func (p *layerProbe) workCounts(before, after dvmc.Results) {
	ops := after.OpsRetired - before.OpsRetired
	p.vals["proc.ops_retired"] = float64(ops)
	if ops > 0 {
		sq := after.SpecSquashes + after.VerifySquashes - before.SpecSquashes - before.VerifySquashes
		p.vals["proc.squash_ratio"] = float64(sq) / float64(ops)
	}
	p.vals["coherence.l1_misses"] = float64(after.L1Misses - before.L1Misses)
	p.vals["coherence.l2_misses"] = float64(after.L2Misses - before.L2Misses)
	p.vals["network.link_bytes"] = float64(after.TotalLinkBytes - before.TotalLinkBytes)
	p.vals["core.informs"] = float64(after.Informs - before.Informs)
	p.vals["core.replay_loads"] = float64(after.ReplayLoads - before.ReplayLoads)
	p.vals["safetynet.checkpoints"] = float64(after.Checkpoints - before.Checkpoints)
}

func (p *layerProbe) traceTimes(t traceTimes) {
	p.vals["trace.decode_ns_per_event"] = t.decodeNs
	p.vals["oracle.feed_ns_per_event"] = t.feedNs
	p.vals["trace.events"] = float64(t.events)
	p.vals["oracle.max_frontier"] = float64(t.maxFrontier)
}

// report prints the per-layer table and sets the run's metrics.
func (p *layerProbe) report(r *run) {
	if p.err != nil {
		r.fail("profiling: %v", p.err)
		return
	}
	fmt.Println(p.overheadNote)
	var totalMs, totalAllocs float64
	for _, m := range modules {
		totalMs += p.self[m]
		totalAllocs += p.allocs[m]
	}
	fmt.Printf("%-14s %10s %6s %12s %6s\n", "module", "self_ms", "%", "allocs", "%")
	for _, m := range modules {
		fmt.Printf("%-14s %10.0f %6.1f %12.0f %6.1f\n", m, p.self[m], pct(p.self[m], totalMs),
			p.allocs[m], pct(p.allocs[m], totalAllocs))
		r.set(m+".self_ms", p.self[m], "ms")
		r.set(m+".allocs", p.allocs[m], "count")
	}
	for _, l := range perLayer {
		fmt.Printf("%-26s %14.6g %s\n", l.name, p.vals[l.name], l.unit)
		r.set(l.name, p.vals[l.name], l.unit)
	}
}

func pct(x, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * x / total
}

// allocsByModule reads the allocation profile and sums allocated objects
// by module.
func allocsByModule() (map[string]float64, error) {
	runtime.GC() // publish every allocation made so far
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	vi := prof.valueIndex("alloc_objects")
	out := map[string]float64{}
	for _, s := range prof.samples {
		if m := prof.allocModule(s.locs); m != "" {
			out[m] += float64(s.values[vi])
		}
	}
	return out, nil
}

// moduleOf maps a symbol to its module; "runtime" is refined by caller.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "dvmc."):
		return "dvmc"
	case strings.HasPrefix(fn, "dvmc/internal/"):
		pkg := strings.TrimPrefix(fn, "dvmc/internal/")
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range modules {
			if m == pkg {
				return m
			}
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof protobuf profile the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	locFuncs    map[uint64][]uint64 // location -> function ids, leaf first
	funcNames   map[uint64]int64    // function -> string table index
	strs        []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return 0
}

// frames returns the stack's function names, leaf first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			out = append(out, p.strs[p.funcNames[f]])
		}
	}
	return out
}

func (p *profile) runtimeModule(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

func (p *profile) leafModule(locs []uint64) string {
	frames := p.frames(locs)
	if len(frames) == 0 {
		return "other"
	}
	if m := moduleOf(frames[0]); m != "runtime" {
		return m
	}
	return p.runtimeModule(frames)
}

// allocModule attributes an allocation to the innermost frame that lies
// in a repository module, so that standard-library helpers count for the
// module that called them. It returns "" for the probe's own allocations.
func (p *profile) allocModule(locs []uint64) string {
	frames := p.frames(locs)
	for _, f := range frames {
		if f == "main.allocsByModule" {
			return ""
		}
	}
	allRuntime := true
	for _, f := range frames {
		switch m := moduleOf(f); m {
		case "runtime":
		case "other":
			allRuntime = false
		default:
			return m
		}
	}
	if allRuntime {
		return p.runtimeModule(frames)
	}
	return "other"
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto fields 1,
// 2, 4, 5 and 6) with a minimal wire-format reader.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	var typeIdx []int64
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return walk(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		if i < 0 || int(i) >= len(p.strs) {
			return nil, fmt.Errorf("profile: bad sample type")
		}
		p.sampleTypes = append(p.sampleTypes, p.strs[i])
	}
	for _, n := range p.funcNames {
		if n < 0 || int(n) >= len(p.strs) {
			return nil, fmt.Errorf("profile: bad function name index")
		}
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: varints and fixed
// values arrive in v, length-delimited ones in b.
func walk(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(buf) < size {
				return fmt.Errorf("profile: truncated fixed field")
			}
			buf = buf[size:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated handles a repeated integer field, packed (b) or not (v).
func repeated(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
