package main

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"time"

	"dvmc"
	"dvmc/internal/consistency"
	"dvmc/internal/mem"
	"dvmc/internal/oracle"
	"dvmc/internal/oracle/stream"
	"dvmc/internal/trace"
)

const (
	loadClass  = consistency.Load
	storeClass = consistency.Store

	// traceCycles is the length of the fault-free simulation whose trace
	// trace-check records in set-up (about 250k events).
	traceCycles = 800_000
)

// pipelined is the stream oracle's configuration for whole traces:
// default shards and window, lanes on their own goroutines.
var pipelined = stream.Options{Pipeline: true}

// checkPass decodes data and checks it with the pipelined stream oracle:
// one trace-check operation.
func checkPass(data []byte) (*oracle.Report, uint64, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	chk := stream.New(rd.Meta(), pipelined)
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			chk.Abort()
			return nil, 0, err
		}
		chk.Feed(ev)
	}
	rep := chk.Finish()
	return rep, chk.EventsFed(), nil
}

// bestOf groups consecutive timings of identical operations by k and
// keeps the best of each group.
func bestOf(xs []float64, k int) []float64 {
	var out []float64
	for i := 0; i+k <= len(xs); i += k {
		b := xs[i]
		for _, x := range xs[i+1 : i+k] {
			b = math.Min(b, x)
		}
		out = append(out, b)
	}
	return out
}

// traceTimes are the timed calls into the trace and oracle layers.
type traceTimes struct {
	decodeNs, feedNs float64 // per event
	events           uint64
	maxFrontier      int64
}

// timeTraceLayers times the trace.Reader.Next loop alone, then
// Checker.Feed+Finish on the events it decoded.
func timeTraceLayers(data []byte) traceTimes {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return traceTimes{}
	}
	events := make([]trace.Event, 0, 1<<16)
	t0 := cpuNow()
	for {
		ev, err := rd.Next()
		if err != nil {
			break
		}
		events = append(events, ev)
	}
	dec := cpuSince(t0)
	chk := stream.New(rd.Meta(), pipelined)
	t1 := cpuNow()
	for _, ev := range events {
		chk.Feed(ev)
	}
	chk.Finish()
	feed := cpuSince(t1)
	n := float64(len(events))
	return traceTimes{
		decodeNs: dec * 1e9 / n, feedNs: feed * 1e9 / n,
		events: uint64(len(events)), maxFrontier: chk.MaxFrontier(),
	}
}

func runTraceCheck(r *run) {
	cfg := dvmc.ScaledConfig().WithSeed(r.seed).WithTrace(dvmc.TraceOn())
	var data []byte
	var sys *dvmc.System
	var setups, builds []float64
	rt := newRTStats()
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := cpuNow()
		s, err := dvmc.NewSystem(cfg, dvmc.OLTP())
		if err != nil {
			r.fail("NewSystem: %v", err)
			return
		}
		builds = append(builds, cpuSince(t0)*1e3)
		s.RunCycles(traceCycles)
		d, err := s.TraceBytes()
		setups = append(setups, cpuSince(t0))
		if err != nil {
			r.fail("TraceBytes: %v", err)
			return
		}
		if data != nil && !bytes.Equal(d, data) {
			r.fail("set-up %d recorded a different trace from the same seed", i)
		}
		data, sys = d, s
	}
	settle()

	var secs []float64
	var reports []*oracle.Report
	var fed []uint64
	var peak, allocs uint64
	passes := func(seconds float64) []float64 {
		var out []float64
		start := time.Now()
		for since(start) < seconds {
			a0, _ := rt.read()
			t0 := cpuNow()
			rep, n, err := checkPass(data)
			d := cpuSince(t0)
			a1, _ := rt.read()
			allocs += a1 - a0
			if err != nil {
				r.fail("check pass: %v", err)
				return out
			}
			out = append(out, d)
			reports = append(reports, rep)
			fed = append(fed, n)
			if _, g := rt.read(); g > peak {
				peak = g
			}
		}
		return out
	}
	if r.traced {
		base := passes(r.seconds / 2)
		r.res.Attempted = int64(len(base))
		r.layers.profileCPU(func() { secs = passes(r.seconds / 2) })
		r.layers.overhead(1/median(base), 1/median(secs), "check passes/s")
		// Only the allocations count; every timed pass was checked.
		r.layers.profileAllocs(func() { checkPass(data) })
		r.layers.workCounts(dvmc.Results{}, sys.ResultsSoFar())
		r.layers.timed("dvmc.new_system_ms", median(builds))
		r.layers.traceTimes(timeTraceLayers(data))
	} else {
		secs = passes(r.seconds)
	}
	r.res.Attempted += int64(len(secs))
	best := bestOf(secs, 3)
	if len(best) == 0 {
		r.fail("fewer than three check passes")
		return
	}

	verifyTraceCheck(r, data, sys, reports, fed)
	if r.traced {
		return
	}
	// The rates use the mean pass time: on a shared host passes run in
	// fast and slow phases lasting seconds, and the median jumps between
	// the two when a run's mix of them passes one half, the mean does not.
	mean := sum(best) / float64(len(best))
	r.set("oracle_events_per_s", float64(fed[0])/mean, "1/s")
	r.set("cases_per_s", 1/mean, "1/s")
	r.set("sim_cycles_per_s", traceCycles/mean, "1/s")
	r.set("allocs_per_kcycle", float64(allocs)*1000/(float64(len(secs))*traceCycles), "allocs/kcycle")
	r.set("peak_heap_mib", mib(peak), "MiB")
	r.set("setup_s", median(setups), "s")
	r.logf("trace-check: %d passes over %d events (%d bytes)", len(secs), fed[0], len(data))
}

// verifyTraceCheck: every pass's stream report equals the batch oracle's
// and is clean, every pass checked the recorder's event count, and a
// planted bad load value is reported at the event it was planted in.
func verifyTraceCheck(r *run, data []byte, sys *dvmc.System, reports []*oracle.Report, fed []uint64) {
	meta, events, err := trace.Decode(data)
	if err != nil {
		r.fail("trace.Decode: %v", err)
		return
	}
	batch := oracle.Check(meta, events)
	if !batch.Clean() {
		r.fail("fault-free trace: batch oracle found %v", batch.Violations[0])
	}
	recorded := sys.TraceStats().Events
	for i, rep := range reports {
		if !reflect.DeepEqual(rep, batch) {
			r.fail("pass %d: stream report differs from batch oracle.Check", i)
			break
		}
		if fed[i] != recorded {
			r.fail("pass %d: checked %d events, the recorder wrote %d", i, fed[i], recorded)
			break
		}
	}
	plantViolation(r, meta, events)
}

// plantViolation rebinds one load in a copy of the trace to a value no
// store wrote and requires the stream oracle to report it at that event.
func plantViolation(r *run, meta trace.Meta, events []trace.Event) {
	written := make(map[[2]uint64]struct{})
	var candidates []int
	for i, ev := range events {
		if ev.Kind != trace.EvPerform {
			continue
		}
		if ev.Class == storeClass || ev.IsRMW {
			written[[2]uint64{uint64(ev.Addr), uint64(ev.Val)}] = struct{}{}
		} else if ev.Class == loadClass && !ev.Fwd {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		r.fail("planted violation: the trace holds no load to rebind")
		return
	}
	at := candidates[int(r.seed%uint64(len(candidates)))]
	victim := events[at]
	bad := uint64(0x5eed_0bad_0000_0001)
	for {
		if _, ok := written[[2]uint64{uint64(victim.Addr), bad}]; !ok {
			break
		}
		bad++
	}
	planted := append([]trace.Event(nil), events...)
	planted[at].Val = mem.Word(bad)
	enc, err := trace.Encode(meta, planted)
	if err != nil {
		r.fail("planted violation: Encode: %v", err)
		return
	}
	rep, err := stream.CheckBytes(enc, pipelined)
	if err != nil {
		r.fail("planted violation: %v", err)
		return
	}
	if len(rep.Violations) != 1 {
		r.fail("planted violation at %v: oracle reported %d violations, want 1", victim, len(rep.Violations))
		return
	}
	v := rep.Violations[0]
	if v.Rule != oracle.RuleLoadValue || v.Node != int(victim.Node) || v.Seq != victim.Seq || v.Time != victim.Time {
		r.fail("planted violation at %v: oracle reported %v", victim, v)
		return
	}
	r.logf("planted violation: reported at node %d seq %d: %s", v.Node, v.Seq, v.Detail)
}
