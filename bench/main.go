// Command bench is the repository's latency ledger: one seeded load
// driver, one histogram, one span recorder and one result writer behind
// five named workloads. An untraced run reports what a user of the system
// sees (the end-to-end metrics of BENCHMARK.json); a separate traced run
// times the calls into each layer from outside and reports the per-layer
// metrics, so the measuring never contends with what is being measured.
//
//	go run ./bench --workload <name>|all --seed N --seconds S --trace 0|1 [-json FILE] [-out DIR]
//	go run ./bench compare A.json B.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is non-zero when any check failed. See
// bench/README.md for what each workload and metric is for.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runOpts is one invocation's input.
type runOpts struct {
	workload string
	seed     int64 // -seed: drives the load; the corpus is frozen, see corpus
	seconds  float64
	trace    bool
	shape    corpusShape
	outDir   string // where traced runs write their spans; "" = nowhere
	log      io.Writer
}

// window splits the measured time: frac of -seconds.
func (o runOpts) window(frac float64) time.Duration {
	return time.Duration(o.seconds * frac * float64(time.Second))
}

// warmup is the untimed lead-in before every measured window.
func (o runOpts) warmup() time.Duration { return o.window(0.1) }

// reps is how many times set-up runs for the median setup_s: the workload's
// frozen count, and once on a traced run, which reports no setup_s.
func (o runOpts) reps(frozen int) int {
	if o.trace {
		return 1
	}
	return frozen
}

// fullLength is the shortest run the wall-clock checks apply to: the limits
// on generator lateness and read latency, and the ledger's thresholds on
// residual and tracing overhead. They were set on 10 s and 18 s runs; on a run of a
// fraction of a second, as in the smoke tests under the race detector, one
// scheduling hiccup is the whole sample. Answers, accounting and the mesh's
// honesty counters are checked whatever the length.
const fullLength = 5.0

func (o runOpts) timed() bool { return o.seconds >= fullLength }

// saveSpans writes a traced run's spans under -out, if one is set.
func (o runOpts) saveSpans(rec *Recorder) error {
	if o.outDir == "" {
		return nil
	}
	spans := rec.recorded()
	path, err := writeSpans(o.outDir, o.workload, o.seed, spans)
	if err != nil {
		return err
	}
	o.logf("%s: %d spans written to %s (%d dropped)", o.workload, len(spans), path, rec.dropped.Load())
	return nil
}

// logw is where progress and ledger tables go (never standard output,
// whose last line belongs to the result).
func (o runOpts) logw() io.Writer {
	if o.log == nil {
		return io.Discard
	}
	return o.log
}

func (o runOpts) logf(format string, args ...any) {
	fmt.Fprintf(o.logw(), format+"\n", args...)
}

// workload is one named load shape.
type workload struct {
	name string
	why  string
	run  func(o runOpts) (*Result, error)
}

var workloads = []workload{
	{"direct-local",
		"one caller, closed loop, Tagger.AutoTag on the local protocol: textproc is ~94% of the op, svm fused scoring ~4%, protocol select ~1.5%; simnet, serving and realnet do nothing",
		func(o runOpts) (*Result, error) { return runDirect(o, "local") }},
	{"direct-cempar",
		"same caller on the paper's CEMPaR protocol: simnet.Run is ~99% of the op, nearly all of it CEMPaR handlers making 32 kernel decisions per query; direct-local is its control",
		func(o runOpts) (*Result, error) { return runDirect(o, "cempar") }},
	{"serve-lone",
		"one closed-loop client on Server.Tag, 2 local shards, cache off: the dispatcher's MaxDelay timer is ~97% of the op, so only the serving layer can move it",
		func(o runOpts) (*Result, error) { return runServe(o, serveLone) }},
	{"serve-open",
		"open-loop Poisson arrivals at a fixed 110/s on Server.Tag over 1 CEMPaR shard (engine ~40% busy): batching under contention, where a flush policy that shrinks batches pays",
		func(o runOpts) (*Result, error) { return runServe(o, serveOpen) }},
	{"mesh-swap",
		"2 nodes over loopback TCP publish model generations beside paced cached reads: the only workload where realnet and wire work (encode, dial, send, admit, swap, cache flush)",
		runMesh},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the load: query order, arrival schedule, hot-set rotation, publish order")
	seconds := fs.Float64("seconds", 18, "measured time per run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	jsonPath := fs.String("json", "", "append each run's result to this file (the input of compare)")
	outDir := fs.String("out", "", "directory traced runs write their spans to (default: spans are not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive, --trace 0 or 1, and no positional arguments")
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, shape: frozenCorpus, outDir: *outDir, log: os.Stderr}

	var todo []runOpts
	if *name == "all" {
		// The whole ledger: every workload untraced, then traced.
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				o := opts
				o.workload, o.trace = w.name, tr
				todo = append(todo, o)
			}
		}
	} else {
		if findWorkload(*name) == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		opts.workload, opts.trace = *name, *trace == 1
		todo = []runOpts{opts}
	}

	code := 0
	for _, o := range todo {
		res, err := findWorkload(o.workload).run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
			return 1
		}
		res.finish()
		if *jsonPath != "" {
			if err := appendResult(*jsonPath, res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if err := res.print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
