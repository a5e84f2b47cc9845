package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkFile is BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4), which is what the
// driver applies. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis, clamped to the data.
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// compareBounds are the bounds compare applies per metric and workload where
// they are tighter than BENCHMARK.json's. That file holds one bound per
// metric, which the driver applies to every workload, so the noisiest
// workload sets it; a claim made with compare must not be let off on
// direct-local by mesh-swap's noise. The numbers are the issue's starting
// bounds: 10 % on set-up time, median latency and throughput, 15 % on the
// tail, 2 % on allocation counts, and exact repeat for F1 where the answers
// do not depend on -seed. mesh-swap's op is a publish converging, which the
// issue bounds at 15 % (median) and 20 % (tail). Its allocations count the reads beside the publish, and its
// model sets follow -seed, so neither count repeats as tightly.
var compareBounds = map[string]map[string]float64{
	"setup_s":       {"direct-local": 0.10, "direct-cempar": 0.10, "serve-lone": 0.10, "serve-open": 0.10, "mesh-swap": 0.10},
	"op_p50_us":     {"direct-local": 0.10, "direct-cempar": 0.10, "serve-lone": 0.10, "serve-open": 0.10, "mesh-swap": 0.15},
	"op_tail_us":    {"direct-local": 0.15, "direct-cempar": 0.15, "serve-lone": 0.15, "serve-open": 0.15, "mesh-swap": 0.20},
	"allocs_per_op": {"direct-local": 0.02, "direct-cempar": 0.02, "serve-lone": 0.02, "serve-open": 0.02},
	"f1_micro":      {"direct-local": 0, "direct-cempar": 0, "serve-lone": 0, "serve-open": 0},
}

// boundFor is the bound compare applies to metric on workload: the tighter
// one of compareBounds if there is one, otherwise BENCHMARK.json's.
func boundFor(metric, workload string, fileBound float64) float64 {
	if b, ok := compareBounds[metric][workload]; ok && b < fileBound {
		return b
	}
	return fileBound
}

// verdict is compare's judgement of one metric on one workload.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within bound"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares the runs of B against the runs of A for one metric. worse
// is the share of A's median by which B's median is worse (negative when
// better); spread is the wider of the two sides' interquartile ranges over
// their medians. A spread wider than the bound leaves the metric
// unresolved unless every run of B beats every run of A.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (v verdict, worse, spread float64) {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	if amed == 0 {
		return verdictUnresolved, 0, 0
	}
	worse = (bmed - amed) / amed
	if !lowerIsBetter {
		worse = -worse
	}
	spread = (aq3 - aq1) / amed
	if bmed != 0 {
		spread = max(spread, (bq3-bq1)/bmed)
	}
	if spread > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if !lowerIsBetter {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return verdictBetter, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	switch {
	case worse > bound:
		return verdictWorse, worse, spread
	case worse < -bound:
		return verdictBetter, worse, spread
	}
	return verdictWithin, worse, spread
}

// untracedValues collects, per workload and named end-to-end metric, the
// values of a result file's untraced runs, in run order.
func untracedValues(f *resultFile, spec *benchmarkFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, d := range spec.EndToEnd {
			if m, ok := r.Metrics[d.Name]; ok {
				out[r.Workload][d.Name] = append(out[r.Workload][d.Name], m.Value)
			}
		}
	}
	return out
}

// compareMain is `bench compare A.json B.json`: A is the parent's result
// file, B the change's. The bounds come from BENCHMARK.json in the working
// directory, tightened per workload by compareBounds. The exit code is 1
// when any metric is worse.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json (run from the directory holding BENCHMARK.json)")
		return 2
	}
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range args {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
		sides[i] = untracedValues(f, spec)
	}
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		a, b := sides[0][wl.Name], sides[1][wl.Name]
		if a == nil || b == nil {
			fmt.Fprintf(w, "%-14s not in both files\n", wl.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			if len(a[m.Name]) == 0 || len(b[m.Name]) == 0 {
				fmt.Fprintf(w, "%-14s %-14s not in both files\n", wl.Name, m.Name)
				continue
			}
			bound := boundFor(m.Name, wl.Name, m.Bound)
			v, worse, spread := judge(a[m.Name], b[m.Name], m.Better == "lower", bound)
			counts[v]++
			_, amed, _ := quartiles(a[m.Name])
			_, bmed, _ := quartiles(b[m.Name])
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (%d vs %d runs)\n",
				wl.Name, m.Name, amed, bmed, worse*100, spread*100, bound*100, v, len(a[m.Name]), len(b[m.Name]))
		}
	}
	fmt.Fprintf(w, "%d better, %d within bound, %d worse, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
