package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smokeShape is a corpus small enough that every workload sets up in a
// fraction of a second, even under the race detector.
var smokeShape = corpusShape{Users: 16, NumTags: 6, DocsPerUserMin: 6, DocsPerUserMax: 8, TrainFrac: 0.5}

func smokeOpts(workload string, trace bool) runOpts {
	return runOpts{workload: workload, seed: 1, seconds: 0.3, trace: trace, shape: smokeShape}
}

// runSmoke runs one workload briefly and applies the command's own checks.
func runSmoke(t *testing.T, o runOpts) *Result {
	t.Helper()
	res, err := findWorkload(o.workload).run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	res.finish()
	return res
}

// TestWorkloadsSmoke keeps the harness honest in tier-1: every workload,
// untraced and traced, reports every metric BENCHMARK.json names for that
// kind of run, finite, with all of its checks passing.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := smokeOpts(w.name, trace)
			o.outDir = t.TempDir()
			res := runSmoke(t, o)
			if trace && w.name == "mesh-swap" {
				checkMeshSpans(t, filepath.Join(o.outDir, "mesh-swap-seed1-spans.csv"))
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.Name)
				case !finite(m.Value) || m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s = %v %q", w.name, trace, d.Name, m.Value, m.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s trace=%v: last output line is not the result object: %.80s", w.name, trace, last)
			}
		}
	}
}

// checkMeshSpans reads a mesh-swap span dump back: the spans of one publish
// share its trace id, and a dial made during a publish carries the id of a
// recorded op, so the dump can be grouped per publish.
func checkMeshSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	var dialTraces []string
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	for _, line := range lines {
		f := strings.Split(line, ",") // trace,span,parent,name,start_ns,end_ns
		switch trace, name := f[0], f[3]; {
		case name == spanNames[spanDial]:
			if trace != "0" { // dials between publishes belong to no op
				dialTraces = append(dialTraces, trace)
			}
		case trace == "0":
			t.Errorf("mesh-swap span without a trace id: %s", line)
		case name == spanNames[spanOp]:
			ops[trace] = true
		}
	}
	if len(ops) == 0 || len(dialTraces) == 0 {
		t.Fatalf("mesh-swap dump holds %d ops and %d dials inside a publish, want both", len(ops), len(dialTraces))
	}
	for _, trace := range dialTraces {
		if !ops[trace] {
			t.Errorf("dial carries trace %s, which is no recorded publish", trace)
		}
	}
}

// TestExactRepeatMetrics: the metrics the ledger calls deterministic are
// bit-equal across two runs of one seed.
func TestExactRepeatMetrics(t *testing.T) {
	exact := []string{"simnet.events_per_op", "simnet.msgs_per_op", "simnet.bytes_per_op"}
	a := runSmoke(t, smokeOpts("direct-cempar", true))
	b := runSmoke(t, smokeOpts("direct-cempar", true))
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v, want the same non-zero value", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	for _, w := range []string{"direct-cempar", "mesh-swap"} {
		x, y := runSmoke(t, smokeOpts(w, false)), runSmoke(t, smokeOpts(w, false))
		if x.Metrics["f1_micro"].Value != y.Metrics["f1_micro"].Value {
			t.Errorf("%s f1_micro: %v then %v", w, x.Metrics["f1_micro"].Value, y.Metrics["f1_micro"].Value)
		}
	}
}

// TestLoadIsSeeded: arrival schedule, read plan and publish order are
// functions of the seed alone.
func TestLoadIsSeeded(t *testing.T) {
	c1, err := newCorpus(smokeShape, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1b, _ := newCorpus(smokeShape, 1)
	c2, _ := newCorpus(smokeShape, 2)
	if !slices.Equal(c1.queries, c2.queries) || slices.Equal(c1.order, c2.order) || !slices.Equal(c1.order, c1b.order) {
		t.Error("-seed must reorder the queries and leave the documents alone")
	}
	s1 := poissonSchedule(c1.rng("arrivals", "window"), 220, 2e9)
	if !slices.Equal(s1, poissonSchedule(c1b.rng("arrivals", "window"), 220, 2e9)) {
		t.Error("same seed, different arrival schedule")
	}
	if slices.Equal(s1, poissonSchedule(c2.rng("arrivals", "window"), 220, 2e9)) {
		t.Error("different seeds, same arrival schedule")
	}
	if got := float64(len(s1)) / 2; math.Abs(got-220) > 40 {
		t.Errorf("schedule holds %.0f arrivals per second, want about 220", got)
	}
	if !slices.IsSorted(s1) {
		t.Error("arrival schedule is not in time order")
	}
	m1, m1b, m2 := &mesh{c: c1}, &mesh{c: c1b}, &mesh{c: c2}
	_, q1 := m1.readPlan(0, 2e9, "window")
	_, q1b := m1b.readPlan(0, 2e9, "window")
	_, q2 := m2.readPlan(0, 2e9, "window")
	if !slices.Equal(q1, q1b) || slices.Equal(q1, q2) {
		t.Error("read plan does not follow the seed")
	}
	hot := map[int]bool{}
	for _, q := range q1[:meshReadRate/4] { // a quarter second: the hot set barely moves
		hot[q] = true
	}
	if len(hot) > meshHotSet+1+meshReadRate/4/5 {
		t.Errorf("%d distinct texts in a quarter second of reads: no hot set", len(hot))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: spanOp, Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: spanVectorize, Start: 10, End: 60},
		{Trace: 1, ID: 3, Parent: 2, Name: spanScore, Start: 20, End: 30},
		{Trace: 1, ID: 4, Parent: 1, Name: spanSelect, Start: 50, End: 120}, // overlaps its sibling and overruns the parent
	}
	self, total := selfTimes(spans)
	for _, tc := range []struct {
		name        spanName
		self, total float64
	}{
		{spanOp, 10, 100}, // 100 minus the merged cover [10,100)
		{spanVectorize, 40, 50},
		{spanScore, 10, 10},
		{spanSelect, 70, 70},
	} {
		if got := self[tc.name].P50(); got != tc.self {
			t.Errorf("%s self time %v, want %v", spanNames[tc.name], got, tc.self)
		}
		if got := total[tc.name].P50(); got != tc.total {
			t.Errorf("%s duration %v, want %v", spanNames[tc.name], got, tc.total)
		}
	}
	led, _ := spanLedger(spans)
	if got, want := led.residual(), 1-120.0/100; math.Abs(got-want) > 1e-12 {
		t.Errorf("residual %v, want %v", got, want)
	}
	dir := t.TempDir()
	path, err := writeSpans(dir, "w", 3, spans)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if want := "trace,span,parent,name,start_ns,end_ns\n1,1,0,op,0,100\n"; !strings.HasPrefix(string(data), want) {
		t.Errorf("span file starts %q", data[:min(len(data), 80)])
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables the command prints
// from, so the contract and the program cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"go", "run", "./bench"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the command %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || seen[d.Name] {
			t.Errorf("end-to-end metric %s: bound %v or duplicate name", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	for metric, per := range compareBounds {
		for wl, b := range per {
			i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == metric })
			if i < 0 || findWorkload(wl) == nil || b < 0 || b > endToEnd[i].Bound {
				t.Errorf("compareBounds[%s][%s] = %v: unknown name, or looser than BENCHMARK.json", metric, wl, b)
			}
		}
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the command %+v", i, got, d)
		}
		if seen[d.Name] || len(d.Name) > 64 {
			t.Errorf("per-layer metric %s: duplicate or over-long name", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  verdict
	}{
		{"same", []float64{100, 101, 99, 100}, []float64{100, 102, 99, 101}, true, 0.1, verdictWithin},
		{"slower", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, true, 0.1, verdictWorse},
		{"faster", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, true, 0.1, verdictBetter},
		{"throughput down", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, 0.1, verdictWorse},
		{"noisy", []float64{100, 140, 70, 100}, []float64{105, 150, 60, 100}, true, 0.1, verdictUnresolved},
		{"noisy but disjoint", []float64{100, 140, 70, 100}, []float64{40, 60, 30, 50}, true, 0.1, verdictBetter},
		{"single runs", []float64{100}, []float64{104}, true, 0.1, verdictWithin},
		{"exact repeat", []float64{0.66, 0.66}, []float64{0.66, 0.66}, false, 0, verdictWithin},
		{"exact repeat broken", []float64{0.66, 0.66}, []float64{0.65, 0.65}, false, 0, verdictWorse},
	} {
		if got, _, _ := judge(tc.a, tc.b, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	// End to end through the files: two result sets of one workload.
	dir := t.TempDir()
	spec, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(file string, p50 float64) {
		for i := 0; i < 3; i++ {
			r := newResult(runOpts{workload: "direct-local", seed: 1, seconds: 1})
			for _, d := range endToEnd {
				r.set(d.Name, 1, 1)
			}
			r.set("op_p50_us", p50+float64(i), 100)
			if err := appendResult(filepath.Join(dir, file), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a.json", 100)
	write("b.json", 100)
	write("c.json", 150)
	t.Chdir(dir)
	var out bytes.Buffer
	if code := compareMain([]string{"a.json", "b.json"}, &out); code != 0 || !strings.Contains(out.String(), "0 worse, 0 unresolved") {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"a.json", "c.json"}, &out); code != 1 || !strings.Contains(out.String(), "1 worse") {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
	// 12 % slower is inside BENCHMARK.json's bound on op_p50_us and outside
	// the 10 % compare holds direct-local to.
	write("d.json", 112)
	out.Reset()
	if code := compareMain([]string{"a.json", "d.json"}, &out); code != 1 || !strings.Contains(out.String(), "1 worse") {
		t.Errorf("12%% slower direct-local: exit %d\n%s", code, out.String())
	}
	if got := boundFor("op_tail_us", "mesh-swap", 0.25); got != 0.20 {
		t.Errorf("mesh-swap op_tail_us bound %v, want the issue's 0.20", got)
	}
	if code := compareMain([]string{"a.json"}, io.Discard); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
