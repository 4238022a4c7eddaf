package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"dvmc"
	"dvmc/internal/fuzz"
	"dvmc/internal/trace"
)

const (
	// faultFrac and fuzz.DefaultBudget are the campaign defaults of
	// dvmc-fuzz run.
	faultFrac = 0.5
	// A round is cases 0..roundCases-1 of the default-mix campaign with
	// seed campaignSeed, whatever --seed is: the campaign's deterministic
	// failures are among them and count in every run. --seed orders the
	// round.
	campaignSeed = 1
	roundCases   = 2000
	// allocCases is how many of the round's cases a traced run profiles
	// allocations over.
	allocCases = 200
	// deriveReps is how many times set-up derives the round; setup_s is
	// the median. Deriving takes some 40 ms, so it is repeated more often
	// than the other workloads' set-ups.
	deriveReps = 25
)

// fuzzCase is one case of the round and what running it gave.
type fuzzCase struct {
	c      *fuzz.Case
	index  int // derivation index in the campaign
	res    fuzz.RunResult
	allocs uint64 // heap objects its first run allocated
}

func (fc *fuzzCase) String() string {
	kind := "fault-free"
	if fc.c.Fault != nil {
		kind = fc.c.Fault.Kind
	}
	return fmt.Sprintf("campaign seed %d index %d %s %s %s: %s (%s)",
		campaignSeed, fc.index, fc.c.Model, fc.c.Protocol, kind, fc.res.Class, fc.res.Detail)
}

// deriveRound derives the round's cases in the order --seed gives them.
func deriveRound(seed uint64) []*fuzzCase {
	order := rand.New(rand.NewPCG(seed, 0x0f0f)).Perm(roundCases)
	out := make([]*fuzzCase, roundCases)
	for i, idx := range order {
		out[i] = &fuzzCase{c: fuzz.DeriveCase(campaignSeed, idx, faultFrac, fuzz.DefaultBudget), index: idx}
	}
	return out
}

// fuzzRun is the campaign: the round's cases and how many rounds ran.
type fuzzRun struct {
	r      *run
	round  []*fuzzCase
	rounds int
	rt     *rtStats
	peak   uint64
}

func (f *fuzzRun) exec(c *fuzz.Case) (fuzz.RunResult, float64, uint64) {
	a0, _ := f.rt.read()
	t0 := cpuNow()
	res, _, err := fuzz.RunCaseStreamed(c, false)
	d := cpuSince(t0)
	a1, g := f.rt.read()
	if g > f.peak {
		f.peak = g
	}
	if err != nil {
		res = fuzz.RunResult{Class: fuzz.ClassCrash, Panic: err.Error(), Detail: err.Error()}
	}
	return res, d, a1 - a0
}

// once runs the round, adding each case's time to secs. The first round
// records each case's class and allocations; every later one must
// classify each case the same.
func (f *fuzzRun) once(secs []float64) {
	for i, fc := range f.round {
		res, d, allocs := f.exec(fc.c)
		if f.rounds == 0 {
			fc.res, fc.allocs = res, allocs
		} else if res.Class != fc.res.Class {
			f.r.fail("round %d: %s classified %s this time", f.rounds, fc, res.Class)
		}
		secs[i] += d
	}
	f.rounds++
}

// measure runs whole rounds, stopping at the round end nearest to seconds,
// and returns each case's mean time over them. A round takes about half
// a run, so how many rounds fit depends on the host's speed; the mean,
// unlike the best of them, does not depend on that count.
func (f *fuzzRun) measure(seconds float64) []float64 {
	start := time.Now()
	secs := make([]float64, len(f.round))
	n := 0
	for n == 0 || since(start)*(1+0.5/float64(n)) < seconds {
		f.once(secs)
		n++
	}
	for i := range secs {
		secs[i] /= float64(n)
	}
	return secs
}

func runFuzz(r *run) {
	f := &fuzzRun{r: r, rt: newRTStats()}
	var setups []float64
	for i := 0; i < deriveReps; i++ {
		settle()
		t0 := cpuNow()
		f.round = deriveRound(r.seed)
		setups = append(setups, cpuSince(t0))
	}
	settle()
	_, f.peak = f.rt.read()

	var secs []float64
	if r.traced {
		base := f.measure(r.seconds / 2)
		r.layers.profileCPU(func() { secs = f.measure(r.seconds / 2) })
		r.layers.overhead(casesPerS(base), casesPerS(secs), "cases/s")
		r.layers.profileAllocs(func() {
			// Only the allocations count: these cases were classified
			// and checked in the rounds above.
			for _, fc := range f.round[:allocCases] {
				fuzz.RunCaseStreamed(fc.c, false)
			}
		})
		r.layers.timed("dvmc.new_system_ms", newSystemMs(r, f.round))
		r.layers.timed("fuzz.derive_us", median(setups)*1e6/roundCases)
	} else {
		secs = f.measure(r.seconds)
	}

	events := verifyFuzz(r, f)
	r.res.Attempted = int64(f.rounds * len(f.round))
	for _, fc := range f.round {
		if fc.res.Class.Failure() {
			r.res.Failed += int64(f.rounds)
		}
	}
	if r.traced {
		return
	}
	var cycles, allocs uint64
	for _, fc := range f.round {
		cycles += fc.res.Cycles
		allocs += fc.allocs
	}
	r.set("cases_per_s", casesPerS(secs), "1/s")
	r.set("sim_cycles_per_s", float64(cycles)/sum(secs), "1/s")
	r.set("allocs_per_kcycle", float64(allocs)*1000/float64(cycles), "allocs/kcycle")
	r.set("oracle_events_per_s", float64(events)/sum(secs), "1/s")
	r.set("peak_heap_mib", mib(f.peak), "MiB")
	r.set("setup_s", median(setups), "s")
	r.logf("fuzz: %d cases x %d rounds, case time p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		len(secs), f.rounds, median(secs)*1e3, quantile(secs, 0.9)*1e3, quantile(secs, 0.99)*1e3)
}

func casesPerS(secs []float64) float64 { return float64(len(secs)) / sum(secs) }

// verifyFuzz checks the round's cases and names every failure. Each case
// is run once more with its trace recorded (fuzz.RunCase), which must
// classify as the streamed run did; it returns the events the round's
// inline oracle checked, counted from those traces.
func verifyFuzz(r *run, f *fuzzRun) uint64 {
	var events uint64
	for _, fc := range f.round {
		if fc.c.Fault == nil && (fc.res.Class != fuzz.ClassAgreeClean || fc.res.Online != 0 || fc.res.Oracle != 0) {
			r.fail("fault-free case not clean to all three referees: %s", fc)
		}
		if fc.res.Class.Failure() {
			r.logf("FAILED in each of %d rounds: %s", f.rounds, fc)
		}
		res, data, err := fuzz.RunCase(fc.c)
		if err != nil || res.Class != fc.res.Class {
			r.fail("%s: recorded run classified %s (err %v)", fc, res.Class, err)
			continue
		}
		if data != nil {
			n, err := countEvents(data)
			if err != nil {
				r.fail("%s: recorded trace: %v", fc, err)
			}
			events += n
		}
	}
	return events
}

// countEvents decodes a trace and returns its event count.
func countEvents(data []byte) (uint64, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	for {
		if _, err := rd.Next(); err == io.EOF {
			return rd.Count(), nil
		} else if err != nil {
			return 0, err
		}
	}
}

// newSystemMs is the median time dvmc.NewSystem takes for the given
// cases' systems.
func newSystemMs(r *run, cases []*fuzzCase) float64 {
	var ms []float64
	for _, fc := range cases {
		c := fc.c
		cfg, err := c.Config()
		if err != nil {
			r.fail("case config: %v", err)
			return 0
		}
		t0 := cpuNow()
		if _, err := dvmc.NewSystem(cfg, c.Program.Spec(c.Name)); err != nil {
			r.fail("NewSystem: %v", err)
			return 0
		}
		ms = append(ms, cpuSince(t0)*1e3)
	}
	return median(ms)
}
