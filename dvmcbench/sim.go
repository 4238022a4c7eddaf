package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"time"

	"dvmc"
	"dvmc/internal/core"
	"dvmc/internal/oracle"
	"dvmc/internal/trace"
)

// simSpec is one whole-system workload: a configuration, a workload
// generator, the warm-up that fills the modelled caches, and the slice
// length the long simulation is timed in.
type simSpec struct {
	name  string
	cfg   func() dvmc.Config
	wl    func() dvmc.Workload
	warm  uint64 // cycles simulated in set-up
	slice uint64 // cycles per timed slice
}

// allocSlices is how many slices a traced run profiles allocations over.
const allocSlices = 10

var simSpecs = map[string]simSpec{
	// The paper's protected system: 8 nodes, MOSI directory over the
	// torus, TSO, full DVMC and SafetyNet.
	"sim-dir-oltp": {
		name:  "sim-dir-oltp",
		cfg:   dvmc.ScaledConfig,
		wl:    dvmc.OLTP,
		warm:  200_000,
		slice: 10_000,
	},
	// The contrast: snooping over the broadcast tree under RMO.
	"sim-snoop-slash": {
		name: "sim-snoop-slash",
		cfg: func() dvmc.Config {
			return dvmc.ScaledConfig().WithProtocol(dvmc.Snooping).WithModel(dvmc.RMO)
		},
		wl:    dvmc.Slashcode,
		warm:  200_000,
		slice: 20_000,
	},
}

// simMeasure is what the counted slices of one timed stretch produced.
// A slice's time is the best of the replicas' times for it.
type simMeasure struct {
	sliceSecs []float64
	cycles    uint64 // per replica
	allocs    uint64 // all replicas
	replicas  int
	peakGoal  uint64
}

// cyclesPerS is the counted cycles over the summed slice times. Like
// trace-check's rates it uses the mean slice time, which moves with a
// run's mix of fast and slow host phases where the median jumps.
func (m simMeasure) cyclesPerS() float64 {
	return float64(m.cycles) / sum(m.sliceSecs)
}

// simRun is one long simulation, run as identical replicas in lockstep:
// every replica simulates the same slice, so the best of their times
// measures the slice with the least interference from the host.
type simRun struct {
	r       *run
	reps    []*dvmc.System
	seen    int // violations of replica 0 looked at so far
	leftOut []string
}

// step runs one slice on every replica and returns the best time.
func (s *simRun) step(slice uint64) float64 {
	best := math.Inf(1)
	for _, sys := range s.reps {
		t0 := cpuNow()
		sys.RunCycles(slice)
		best = math.Min(best, cpuSince(t0))
	}
	return best
}

// leaveOut reports whether the slice just run raised an online violation
// in this fault-free run. The one kind tolerated is the progress
// watchdog's operation-timeout, which fires on some seeds only (seed 3 of
// sim-dir-oltp): its slice is named and left out. Any other violation
// fails the run.
func (s *simRun) leaveOut() bool {
	sys := s.reps[0]
	v := sys.Violations()
	if len(v) == s.seen {
		return false
	}
	for _, x := range v[s.seen:] {
		if x.Kind != core.OperationTimeout {
			s.r.fail("fault-free run: online violation in the slice ending at cycle %d: %v", sys.Now(), x)
			continue
		}
		s.leftOut = append(s.leftOut, fmt.Sprintf("slice ending at cycle %d: %v", sys.Now(), x))
	}
	s.seen = len(v)
	return true
}

// measure advances the replicas slice by slice until seconds have passed.
func (s *simRun) measure(slice uint64, seconds float64) simMeasure {
	rt := newRTStats()
	m := simMeasure{sliceSecs: make([]float64, 0, 1<<14), replicas: len(s.reps)}
	_, m.peakGoal = rt.read()
	start := time.Now()
	for since(start) < seconds {
		a0, _ := rt.read()
		d := s.step(slice)
		a1, g := rt.read()
		if g > m.peakGoal {
			m.peakGoal = g
		}
		if s.leaveOut() {
			continue
		}
		m.sliceSecs = append(m.sliceSecs, d)
		m.cycles += slice
		m.allocs += a1 - a0
	}
	return m
}

// buildSim builds the system and runs its warm-up, returning the time
// NewSystem took and the whole set-up time.
func buildSim(cfg dvmc.Config, sp simSpec) (*dvmc.System, float64, float64, error) {
	t0 := cpuNow()
	sys, err := dvmc.NewSystem(cfg, sp.wl())
	if err != nil {
		return nil, 0, 0, err
	}
	built := cpuSince(t0)
	sys.RunCycles(sp.warm)
	return sys, built, cpuSince(t0), nil
}

func runSim(r *run, sp simSpec) {
	cfg := sp.cfg().WithSeed(r.seed)
	sr := &simRun{r: r}
	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		settle()
		sys, built, total, err := buildSim(cfg, sp)
		if err != nil {
			r.fail("NewSystem: %v", err)
			return
		}
		sr.reps = append(sr.reps, sys)
		builds = append(builds, built*1e3)
		setups = append(setups, total)
	}
	settle()
	r.logf("set-up: %s s", fmtSecs(setups))

	var m simMeasure
	if r.traced {
		base := sr.measure(sp.slice, r.seconds/2)
		r.layers.profileCPU(func() { m = sr.measure(sp.slice, r.seconds/2) })
		r.layers.overhead(base.cyclesPerS(), m.cyclesPerS(), "simulated cycles/s")
		r.res.Attempted = int64(len(base.sliceSecs))
		sys := sr.reps[0]
		before := sys.ResultsSoFar()
		r.layers.profileAllocs(func() {
			for i := 0; i < allocSlices; i++ {
				sys.RunCycles(sp.slice)
			}
		})
		r.layers.workCounts(before, sys.ResultsSoFar())
		for _, other := range sr.reps[1:] {
			other.RunCycles(allocSlices * sp.slice)
		}
		sr.leaveOut()
		r.layers.timed("dvmc.new_system_ms", median(builds))
	} else {
		m = sr.measure(sp.slice, r.seconds)
	}
	r.res.Attempted += int64(len(m.sliceSecs))
	for _, l := range sr.leftOut {
		r.logf("LEFT OUT (fails on this seed only): %s", l)
	}

	data, events := verifySim(r, cfg, sp, sr)

	if r.traced {
		sr.reps = nil // the trace timings run without the replicas' heap
		if data != nil {
			r.layers.traceTimes(timeTraceLayers(data))
		}
		return
	}
	r.set("sim_cycles_per_s", m.cyclesPerS(), "1/s")
	r.set("oracle_events_per_s", events*m.cyclesPerS(), "1/s")
	r.set("allocs_per_kcycle", float64(m.allocs)*1000/float64(m.cycles*uint64(m.replicas)), "allocs/kcycle")
	r.set("cases_per_s", float64(len(m.sliceSecs))/sum(m.sliceSecs), "1/s")
	r.set("peak_heap_mib", mib(m.peakGoal), "MiB")
	r.set("setup_s", median(setups), "s")
	r.logf("sim: %s slices=%d cycles=%d allocs=%d", sp.name, len(m.sliceSecs), m.cycles, m.allocs)
}

// verifySim checks the timed run's outputs: the replicas agree, no online
// violation outside the left-out slices, every node retires, a
// trace-capturing re-run of the same seed and length returns equal
// Results and violations, the oracle judges its trace clean, and every
// load in it returns a value some store wrote. It returns the trace and
// its events per simulated cycle after the warm-up.
func verifySim(r *run, cfg dvmc.Config, sp simSpec, sr *simRun) ([]byte, float64) {
	sys := sr.reps[0]
	total := uint64(sys.Now())
	res := sys.ResultsSoFar()
	for i, other := range sr.reps[1:] {
		if ores := other.ResultsSoFar(); !reflect.DeepEqual(res, ores) {
			r.fail("%s: replica %d diverged from replica 0", sp.name, i+1)
		}
	}
	fmt.Printf("stats-digest: workload=%s seed=%d cycles=%d sha256=%s\n",
		sp.name, r.seed, total, statsDigest(sys, cfg.Nodes))
	sys.DrainCheckers()
	if v := sys.Violations(); len(v) != sr.seen {
		r.fail("%s: fault-free run reported %d online violations after its last slice, first %v",
			sp.name, len(v)-sr.seen, v[sr.seen])
	}
	for node := 0; node < cfg.Nodes; node++ {
		if sys.CPUStats(node).OpsRetired == 0 {
			r.fail("%s: node %d retired no operations", sp.name, node)
		}
	}

	vsys, err := dvmc.NewSystem(cfg.WithTrace(dvmc.TraceOn()), sp.wl())
	if err != nil {
		r.fail("NewSystem with trace: %v", err)
		return nil, 0
	}
	warmEvents := advance(vsys, sp, total)
	if vres := vsys.ResultsSoFar(); !reflect.DeepEqual(res, vres) {
		r.fail("%s: trace-capturing re-run diverged:\n  timed %v\n  re-run %v", sp.name, res, vres)
	}
	vsys.DrainCheckers()
	if !reflect.DeepEqual(vsys.Violations(), sys.Violations()) {
		r.fail("%s: trace-capturing re-run reported %d online violations, the timed run %d",
			sp.name, len(vsys.Violations()), len(sys.Violations()))
	}
	data, err := vsys.TraceBytes()
	if err != nil {
		r.fail("%s: TraceBytes: %v", sp.name, err)
		return nil, 0
	}
	rep, err := oracle.CheckBytes(data)
	switch {
	case err != nil:
		r.fail("%s: oracle.CheckBytes: %v", sp.name, err)
	case !rep.Clean():
		r.fail("%s: oracle found %d violations, first %v", sp.name, len(rep.Violations), rep.Violations[0])
	}
	checkLoadValues(r, data)
	return data, float64(vsys.TraceStats().Events-warmEvents) / float64(total-sp.warm)
}

// advance runs sys from cycle 0 to total the way the timed run did:
// warm-up, then whole slices. It returns the trace events recorded by the
// end of the warm-up.
func advance(sys *dvmc.System, sp simSpec, total uint64) uint64 {
	sys.RunCycles(sp.warm)
	warm := sys.TraceStats().Events
	for done := sp.warm; done < total; done += sp.slice {
		sys.RunCycles(sp.slice)
	}
	return warm
}

// statsDigest hashes every simulated statistic the system exposes.
func statsDigest(sys *dvmc.System, nodes int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", sys.ResultsSoFar())
	for n := 0; n < nodes; n++ {
		fmt.Fprintf(h, "%d %+v %+v %+v %+v %+v %+v\n", n, sys.CPUStats(n), sys.ControllerStats(n),
			sys.UOStats(n), sys.ReorderStats(n), sys.CETStats(n), sys.METStats(n))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkLoadValues is the benchmark's own value check, independent of the
// oracle: every load (and every atomic's old value) binds zero, the
// initial value, or a value some store wrote to that word. Loads served
// by store-forwarding are skipped: their store may not have performed
// when the trace ends.
func checkLoadValues(r *run, data []byte) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		r.fail("value check: %v", err)
		return
	}
	type load struct {
		addr, val uint64
		ev        trace.Event
	}
	written := make(map[[2]uint64]struct{})
	var loads []load
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.fail("value check: %v", err)
			return
		}
		if ev.Kind != trace.EvPerform {
			continue
		}
		addr := uint64(ev.Addr)
		switch {
		case ev.IsRMW:
			written[[2]uint64{addr, uint64(ev.Val)}] = struct{}{}
			loads = append(loads, load{addr, uint64(ev.Val2), ev})
		case ev.Class == storeClass:
			written[[2]uint64{addr, uint64(ev.Val)}] = struct{}{}
		case ev.Class == loadClass && !ev.Fwd:
			loads = append(loads, load{addr, uint64(ev.Val), ev})
		}
	}
	bad := 0
	for _, l := range loads {
		if l.val == 0 {
			continue
		}
		if _, ok := written[[2]uint64{l.addr, l.val}]; !ok {
			if bad == 0 {
				r.fail("value check: %v bound a value no store wrote", l.ev)
			}
			bad++
		}
	}
	if bad > 1 {
		r.fail("value check: %d loads in all bound values no store wrote", bad)
	}
	if len(loads) == 0 {
		r.fail("value check: the trace holds no loads")
	}
	r.logf("value check: %d loads against %d written (address, value) pairs", len(loads), len(written))
}

// digestMain re-simulates a sim workload to a given cycle and prints the
// statistics digest a timed run of that seed and length printed.
func digestMain(args []string) int {
	fs := flag.NewFlagSet("digest", flag.ExitOnError)
	wl := fs.String("workload", "sim-dir-oltp", "sim workload")
	seed := fs.Uint64("seed", 1, "input seed")
	cycles := fs.Uint64("cycles", 0, "total cycles, as the timed run printed them")
	fs.Parse(args)
	sp, ok := simSpecs[*wl]
	if !ok || *cycles < sp.warm {
		fmt.Fprintf(os.Stderr, "digest: need a sim workload and --cycles >= its warm-up\n")
		return 1
	}
	cfg := sp.cfg().WithSeed(*seed)
	sys, err := dvmc.NewSystem(cfg, sp.wl())
	if err != nil {
		fmt.Fprintln(os.Stderr, "digest:", err)
		return 1
	}
	advance(sys, sp, *cycles)
	fmt.Printf("stats-digest: workload=%s seed=%d cycles=%d sha256=%s\n",
		sp.name, *seed, uint64(sys.Now()), statsDigest(sys, cfg.Nodes))
	return 0
}
