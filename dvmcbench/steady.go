package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness check reads.
type benchFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Two sets of steadyRuns runs of every workload, on seeds 1..steadyRuns,
// are the evidence for the bounds in BENCHMARK.json.
const (
	steadySets = 2
	steadyRuns = 10
)

// steadyMain runs two interleaved sets of every workload on the same
// seeds and prints, per end-to-end metric, each set's median and
// quartiles and whether the sets agree within the metric's bound.
func steadyMain(args []string) int {
	if len(args) != 0 {
		fmt.Fprintln(os.Stderr, "steady: takes no arguments; run it from the repository root")
		return 1
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	seconds := bf.RunSeconds
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	printHost("steady", 0, seconds, 0)

	// got[set][workload] holds the runs in seed order.
	got := make([]map[string][]result, steadySets)
	for s := range got {
		got[s] = map[string][]result{}
	}
	for i := 0; i < steadyRuns; i++ {
		for k := 0; k < steadySets; k++ {
			set := (k + i) % steadySets // alternate which set goes first
			for _, w := range names {
				res, err := runOnce(self, w, uint64(i+1), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, i+1, err)
					return 1
				}
				fmt.Printf("set %d %s seed %d: correct=%v attempted=%d failed=%d",
					set, w, i+1, res.Correct, res.Attempted, res.Failed)
				for _, m := range bf.EndToEnd {
					fmt.Printf(" %s=%.5g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Println()
				got[set][w] = append(got[set][w], res)
			}
		}
	}

	ok := true
	fmt.Printf("\n%-16s %-20s %-6s %12s %12s %12s %7s %7s %s\n",
		"workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			var meds []float64
			verdict := "ok"
			for s := 0; s < steadySets; s++ {
				var xs []float64
				for _, res := range got[s][w] {
					xs = append(xs, res.Metrics[m.Name].Value)
				}
				q1, med, q3 := quartiles(xs)
				spread := (q3 - q1) / med
				meds = append(meds, med)
				if !(spread <= m.Bound) {
					verdict = "SPREAD"
				}
				fmt.Printf("%-16s %-20s %-6d %12.5g %12.5g %12.5g %7.3f %7.3f\n",
					w, m.Name, s, med, q1, q3, spread, m.Bound)
			}
			for s := 1; s < len(meds); s++ {
				worse := (meds[s] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				if math.Abs(worse) > m.Bound {
					verdict = fmt.Sprintf("DRIFT %.3f", worse)
				}
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("%-16s %-20s %-6s %s\n", w, m.Name, "agree", verdict)
		}
		var shares []string
		for s := 0; s < steadySets; s++ {
			var a, f int64
			for _, res := range got[s][w] {
				a += res.Attempted
				f += res.Failed
			}
			shares = append(shares, fmt.Sprintf("%d/%d", f, a))
		}
		fmt.Printf("%-16s failed/attempted by set: %s\n", w, strings.Join(shares, " "))
	}
	if !ok {
		fmt.Println("steady: sets disagree beyond a bound")
		return 2
	}
	return 0
}

// runOnce runs one workload in a child process and parses its result.
func runOnce(self, w string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		return res, fmt.Errorf("no result line (exit %v)", err)
	}
	return res, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method) and the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}
