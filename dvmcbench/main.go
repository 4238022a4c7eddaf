// Command dvmcbench is the repository's end-to-end benchmark. It drives
// the public API of the dvmc package and of internal/fuzz, internal/trace
// and internal/oracle/stream from outside the program, times what users
// wait on, and checks every output it times.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash dvmcbench/run.sh --workload sim-dir-oltp --seed 1 --seconds 10 --trace 0
//	bash dvmcbench/run.sh steady
//	bash dvmcbench/run.sh digest --workload sim-dir-oltp --seed 1 --cycles 4200000
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the process profiles itself and reports per-layer ones.
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its set-up; setup_s
// is the median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation: its options, the metrics it reports
// and the output checks that failed.
type run struct {
	seed    uint64
	seconds float64
	traced  bool

	res      result
	problems []string
	layers   *layerProbe // traced runs only
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check; the run reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

func (r *run) logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

var workloads = map[string]func(*run){
	"sim-dir-oltp":    func(r *run) { runSim(r, simSpecs["sim-dir-oltp"]) },
	"sim-snoop-slash": func(r *run) { runSim(r, simSpecs["sim-snoop-slash"]) },
	"fuzz-campaign":   runFuzz,
	"trace-check":     runTraceCheck,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	// One P: operations are timed in process CPU time, and a second P
	// adds scheduler spinning and concurrent collector work whose share
	// of that time varies from run to run.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "digest":
			os.Exit(digestMain(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("dvmcbench", flag.ExitOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: profile the run and report per-layer metrics")
	fs.Parse(os.Args[1:])
	fn, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dvmcbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(1)
	}
	r := &run{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		res: result{Metrics: map[string]metric{}},
	}
	if r.traced {
		r.layers = newLayerProbe()
	}
	printHost(*wl, *seed, *seconds, *trace)
	fn(r)
	if r.traced {
		r.layers.report(r)
	}
	r.res.Correct = len(r.problems) == 0
	if r.res.Attempted < 1 {
		r.fail("no operation attempted")
		r.res.Correct = false
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvmcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// printHost opens every report with the host block.
func printHost(wl string, seed uint64, seconds float64, trace int) {
	fmt.Printf("host: cpu=%q cpus=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", wl, seed, seconds, trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rtStats reads the runtime's cumulative allocation count and current
// heap goal without allocating.
type rtStats struct{ s []metrics.Sample }

func newRTStats() *rtStats {
	return &rtStats{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/goal:bytes"},
	}}
}

func (r *rtStats) read() (allocs, heapGoal uint64) {
	metrics.Read(r.s)
	return r.s[0].Value.Uint64(), r.s[1].Value.Uint64()
}

// settle collects garbage so that each set-up and the timed interval
// start from the live heap alone.
func settle() { runtime.GC() }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the linearly interpolated q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// since is the wall-clock time since t; it decides when a run's time is up.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// cpuNow is the CPU time the process has consumed, user plus system, over
// all its threads. Operations are timed with it: unlike the wall clock it
// stops while the hypervisor runs another guest on the host's CPUs, and
// for single-threaded work on an otherwise idle machine the two agree.
func cpuNow() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func cpuSince(c0 float64) float64 { return cpuNow() - c0 }

// fmtSecs prints times to the millisecond.
func fmtSecs(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}
