package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	doctagger "repro"
)

// metricDef names one metric of BENCHMARK.json. The two tables below are
// the single source the run output is built from; TestBenchmarkJSON pins
// BENCHMARK.json to them.
type metricDef struct {
	Name, Unit, Better string
	// Bound, end-to-end only, is BENCHMARK.json's: one number per metric
	// that the driver applies on every workload, so the noisiest workload
	// sets it. compare tightens it per workload, see compareBounds.
	Bound float64
}

// endToEnd lists what a user of the system sees; every workload reports
// every one of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.05},
	{"f1_micro", "ratio", "higher", 0.01},
}

// perLayer lists the single-layer metrics of a traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "textproc.vectorize_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "textproc.vectorize_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "textproc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "textproc.terms_per_doc", Unit: "count", Better: "lower"},
	{Name: "textproc.vectorize_batch_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "svm.fused_score_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "svm.fused_layout", Unit: "enum", Better: "lower"},
	{Name: "svm.kernel_decision_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "svm.train_linear_ms", Unit: "ms", Better: "lower"},
	{Name: "protocol.select_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cempar.issue_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cempar.handler_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "simnet.run_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "simnet.events_per_op", Unit: "count", Better: "lower"},
	{Name: "simnet.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "simnet.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "simnet.engine_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "simnet.engine_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "dht.lookup_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "dht.hops_per_lookup", Unit: "count", Better: "lower"},
	{Name: "doctagger.train_ms", Unit: "ms", Better: "lower"},
	{Name: "doctagger.add_document_us", Unit: "us", Better: "lower"},
	{Name: "serving.engine_batch_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "serving.engine_busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serving.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serving.batch_size_p99", Unit: "count", Better: "higher"},
	{Name: "serving.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serving.overhead_us_p99", Unit: "us", Better: "lower"},
	{Name: "serving.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "serving.batches", Unit: "count", Better: "lower"},
	{Name: "serving.rejected", Unit: "count", Better: "lower"},
	{Name: "serving.coalesced", Unit: "count", Better: "higher"},
	{Name: "serving.deduped", Unit: "count", Better: "higher"},
	{Name: "serving.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serving.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serving.swap_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serving.swap_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serving.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "serving.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "serving.bulk_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serving.p99_us_r50", Unit: "us", Better: "lower"},
	{Name: "serving.p99_us_r100", Unit: "us", Better: "lower"},
	{Name: "serving.p99_us_r150", Unit: "us", Better: "lower"},
	{Name: "serving.p99_us_r200", Unit: "us", Better: "lower"},
	{Name: "serving.max_rate_ok_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.set_bytes", Unit: "B", Better: "lower"},
	{Name: "realnet.train_set_ms", Unit: "ms", Better: "lower"},
	{Name: "realnet.publish_call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "realnet.dial_us_p50", Unit: "us", Better: "lower"},
	{Name: "realnet.dials_per_publish", Unit: "count", Better: "lower"},
	{Name: "realnet.deliver_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "realnet.deliver_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "realnet.install_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "realnet.install_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "realnet.frames_out", Unit: "count", Better: "lower"},
	{Name: "realnet.bytes_out", Unit: "B", Better: "lower"},
	{Name: "realnet.retries", Unit: "count", Better: "lower"},
	{Name: "realnet.rejects", Unit: "count", Better: "lower"},
	{Name: "realnet.quarantined", Unit: "count", Better: "lower"},
	{Name: "realnet.ensemble_ns_per_doc", Unit: "ns", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.inflight_max", Unit: "count", Better: "lower"},
	{Name: "trace.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "ledger.residual_ratio", Unit: "ratio", Better: "lower"},
}

// Metric is one reported number. N is the sample count behind it (0 for a
// plain counter) and Note says what a percentile fell back to, if it did.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]Metric `json:"metrics"`
	Problems   []string          `json:"problems,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	GoVersion  string            `json:"go"`

	defs  []metricDef
	timed bool // long enough for the wall-clock checks, see fullLength
}

// newResult starts a result whose metric set is fixed up front: every
// named metric is present from the start (0 until measured), so a workload
// that bypasses a layer still prints that layer's rows.
func newResult(o runOpts) *Result {
	r := &Result{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: true, Metrics: map[string]Metric{},
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		defs: endToEnd, timed: o.timed(),
	}
	if o.trace {
		r.defs = perLayer
	}
	for _, d := range r.defs {
		r.Metrics[d.Name] = Metric{Unit: d.Unit}
	}
	return r
}

// set records a measured metric; naming one BENCHMARK.json does not list
// for this kind of run is a bug in the benchmark.
func (r *Result) set(name string, value float64, n int) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not declared for this run")
	}
	m.Value, m.N = value, n
	r.Metrics[name] = m
}

// setQuantile records h's q-quantile scaled by 1/div, noting a fallback.
func (r *Result) setQuantile(name string, h *Hist, q, div float64) {
	v, used := h.Quantile(q)
	r.set(name, v/div, h.Count())
	if used != q {
		m := r.Metrics[name]
		m.Note = fmt.Sprintf("p%g reported: fewer than %d samples beyond p%g", used*100, minBeyond, q*100)
		r.Metrics[name] = m
	}
}

// fail counts failed ops and keeps the first few reasons for the report.
func (r *Result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.problem(format, args...)
}

// problem marks the run incorrect without charging an op.
func (r *Result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// lateLimit invalidates a paced run whose generator fell so far behind its
// own schedule that the offered load is no longer the schedule. It is not
// tighter because the generator shares the process, and on the 2-core
// reference box both cores, with CPU-bound engines: a timer that fires
// while every P runs engine code waits for the runtime's 10 ms preemption
// quantum. Ops are timed from their due time, so that wait is charged to
// the program, the same on every commit; gen.late_p99_us reports it.
const lateLimit = 50 * time.Millisecond

// checkLate applies lateLimit to a pacer's lateness histogram.
func (r *Result) checkLate(late *Hist) {
	if p99 := late.quantile(0.99); r.timed && p99 > float64(lateLimit) {
		r.problem("load generator ran late: p99 %.0f us after the due time", p99/1e3)
	}
}

// The ledger's own validity limits: stages that leave more than
// residualLimit of the op unexplained (or explain more than all of it) do
// not add up, and tracing that slows the op by overheadLimit is measuring
// itself. The overhead is a ratio of two medians taken within one run, and
// even against a paired baseline that ratio read up to overheadNoise away
// from its value on the reference box (44 traced direct-* runs of one
// commit: -0.049 to +0.036), so a run fails only when it reads beyond the
// limit by more than that.
const (
	residualLimit = 0.15
	overheadLimit = 0.05
	overheadNoise = 0.05
)

// setLedger reports a traced slice: the traced op's median, the ledger's
// residual, and the tracing overhead against plain, the untraced baseline
// of the same run under the same load (nil where none is measured). On a
// full-length run the residual limit is a failed check, and so is the
// overhead limit when the baseline is paired: measured in turns with the
// traced ops. Against a baseline slice that ran before the traced one, as
// on serve-*, the ratio read 0.058 and 0.083 with tracing that costs those
// ops under a microsecond of milliseconds; it is reported, and no threshold
// on it would be both safe for honest runs and tight enough to mean anything.
func (r *Result) setLedger(led *ledger, traced, plain *Hist, paired bool) {
	r.set("trace.op_p50_us", traced.P50()/1e3, traced.Count())
	residual := led.residual()
	r.set("ledger.residual_ratio", residual, led.root.Count())
	if r.timed && math.Abs(residual) > residualLimit {
		r.problem("ledger does not add up: the stages' median self times leave %.3f of the median op unexplained, limit %.2f", residual, residualLimit)
	}
	if plain == nil || plain.P50() == 0 {
		return
	}
	overhead := traced.P50()/plain.P50() - 1
	r.set("trace.overhead_ratio", overhead, plain.Count())
	if r.timed && paired && overhead >= overheadLimit+overheadNoise {
		r.problem("tracing slowed the median op by %.3f, limit %.2f (+ %.2f the ratio cannot resolve): the ledger is measuring itself", overhead, overheadLimit, overheadNoise)
	}
}

// checkAccounting asserts, for one serving pool, the accounting identity
// and that the pool issued exactly the rows its clients asked for since
// the snapshot before.
func (r *Result) checkAccounting(pool string, before, after doctagger.ServerStats, asked int64) {
	if after.Issued != after.Served+after.CacheHits+after.Coalesced+after.Deduped {
		r.problem("%s: accounting identity broken: issued %d != served %d + hits %d + coalesced %d + deduped %d",
			pool, after.Issued, after.Served, after.CacheHits, after.Coalesced, after.Deduped)
	}
	if got := after.Issued - before.Issued; got != asked {
		r.problem("%s issued %d rows, its clients asked for %d", pool, got, asked)
	}
}

// finish applies the checks common to every run: at least one op, every
// metric finite, and every end-to-end metric non-zero.
func (r *Result) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.problem("no op was attempted")
	}
	if r.Failed > 0 {
		r.Correct = false
	}
	for _, d := range r.defs {
		v := r.Metrics[d.Name].Value
		if !finite(v) {
			r.problem("metric %s is not finite", d.Name)
			m := r.Metrics[d.Name]
			m.Value = 0
			r.Metrics[d.Name] = m
		}
		if !r.Trace && v == 0 {
			r.problem("end-to-end metric %s was not measured", d.Name)
		}
	}
}

// print writes the human table and, last, the one-line JSON object the
// driver reads.
func (r *Result) print(w io.Writer) error {
	kind := "end-to-end (untraced)"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  %s  GOMAXPROCS=%d nproc=%d %s\n",
		r.Workload, r.Seed, r.Seconds, kind, r.GOMAXPROCS, r.NumCPU, r.GoVersion)
	for _, d := range r.defs {
		m := r.Metrics[d.Name]
		line := fmt.Sprintf("  %-38s %16.4f %-6s", d.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]lineMetric{}}
	for _, d := range r.defs {
		m := r.Metrics[d.Name]
		line.Metrics[d.Name] = lineMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// resultFile is what -json accumulates: one entry per run, appended, so a
// set of repeat runs lands in one file that compare can read.
type resultFile struct {
	Runs []*Result `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResult adds r to the result file at path, creating it if needed.
func appendResult(path string, r *Result) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
