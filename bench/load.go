package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	doctagger "repro"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// corpusShape fixes the synthetic corpus every workload shares; the smoke
// tests shrink it, the command never does.
type corpusShape struct {
	Users, NumTags                 int
	DocsPerUserMin, DocsPerUserMax int
	TrainFrac                      float64
}

// frozenCorpus is the shape named in bench/README.md.
var frozenCorpus = corpusShape{Users: 16, NumTags: 16, DocsPerUserMin: 30, DocsPerUserMax: 40, TrainFrac: 0.5}

// corpus is the generated input of one run: the labeled train split the
// swarm learns from, the test split whose texts are the queries, and the
// order the load asks them in.
//
// The documents, the split and every model trained from them come from
// corpusSeed, a constant. seed is -seed: it drives everything the load
// generator decides — query order, arrival times, hot-set rotation, publish
// order, which bootstrap subset each published model set saw. The documents
// do not follow -seed because the driver reads variation between -seed
// values as noise: with a fresh corpus per seed, document lengths alone
// moved direct-local's p99 by 17 % and F1 by 14 % between seeds, and a bound
// must be wider than that spread to be accepted, too wide to guard anything.
type corpus struct {
	seed    int64
	train   []doctagger.CorpusDoc
	test    []doctagger.CorpusDoc
	queries []string // test texts, in split order
	order   []int    // the load's i-th op asks queries[order[i%len(order)]]
}

// corpusSeed generates the corpus all committed numbers refer to, and seeds
// every model trained on it.
const corpusSeed = 1

func newCorpus(shape corpusShape, seed int64) (*corpus, error) {
	docs, _, err := doctagger.GenerateCorpus(doctagger.CorpusConfig{
		Users: shape.Users, NumTags: shape.NumTags,
		DocsPerUserMin: shape.DocsPerUserMin, DocsPerUserMax: shape.DocsPerUserMax,
		Seed: corpusSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	c := &corpus{seed: seed}
	c.train, c.test = doctagger.SplitCorpus(docs, shape.TrainFrac, corpusSeed)
	if len(c.train) == 0 || len(c.test) == 0 {
		return nil, fmt.Errorf("empty split (%d train, %d test)", len(c.train), len(c.test))
	}
	c.queries = make([]string, len(c.test))
	for i, d := range c.test {
		c.queries[i] = d.Text
	}
	c.order = c.rng("query-order").Perm(len(c.queries))
	return c, nil
}

// query is the index of the query the load's i-th op asks.
func (c *corpus) query(i int) int { return c.order[i%len(c.order)] }

// rng returns the benchmark's own generator for one purpose; every random
// choice the load makes derives from -seed through here, so the program
// under test only ever sees generated inputs.
func (c *corpus) rng(purpose ...string) *rand.Rand {
	return rand.New(rand.NewSource(runner.DeriveSeed(c.seed, append([]string{"bench"}, purpose...)...)))
}

// frozenRng is the generator for the inputs that, like the documents, do
// not follow -seed: the arrival instants of the open-loop workload. Which
// query meets which arrival still follows -seed. A schedule drawn afresh per
// seed moved serve-open's p90 by 9 % between seeds on an idle box, because
// eighteen seconds hold only so many bursts, and the driver reads that as
// noise of the program.
func frozenRng(purpose ...string) *rand.Rand {
	return rand.New(rand.NewSource(runner.DeriveSeed(corpusSeed, append([]string{"bench"}, purpose...)...)))
}

// f1Micro scores answers (one tag list per test document, in split order)
// against the corpus ground truth.
func (c *corpus) f1Micro(answers [][]string) float64 {
	acc := metrics.NewMultiLabel(0)
	for i, d := range c.test {
		acc.Add(metrics.NewLabelSet(d.Tags), metrics.NewLabelSet(answers[i]))
	}
	return acc.MicroF1()
}

// poissonSchedule precomputes open-loop arrival offsets at rate perSecond
// over span: the arrival times of a Poisson process given its count, which
// are that many independent uniform instants, sorted. The count is fixed at
// rate x span because a free count moves the offered load by 2 % from seed
// to seed, and the driver reads variation between seeds as noise of the
// program. The schedule is a function of rng alone and never of how fast
// the program runs.
func poissonSchedule(rng *rand.Rand, perSecond float64, span time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(perSecond*span.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(span))
	}
	slices.Sort(out)
	return out
}

// pacedSchedule is a fixed-interval schedule starting at phase.
func pacedSchedule(perSecond float64, phase, span time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / perSecond)
	var out []time.Duration
	for at := phase; at < span; at += gap {
		out = append(out, at)
	}
	return out
}

// waitUntil blocks until the wall clock reaches due. It sleeps while the
// deadline is far and yields through the last stretch: a sleeping
// goroutine wakes up to ~100 µs late on Linux, which would be charged to
// the program as latency (ops are timed from their due time).
func waitUntil(due time.Time) {
	const spin = 150 * time.Microsecond
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spin {
			time.Sleep(d - spin)
			continue
		}
		runtime.Gosched()
	}
}

// closedLoop issues op(0), op(1), ... back to back on the calling goroutine
// for d and records each latency in lat (nil for a warm-up). An op still
// running at the deadline is kept: it was issued inside the window.
func closedLoop(d time.Duration, lat *Hist, op func(i int) (time.Duration, bool)) (ops, failed int64, elapsed time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		took, ok := op(i)
		if lat != nil {
			lat.Record(int64(took))
		}
		ops++
		if !ok {
			failed++
		}
	}
	return ops, failed, time.Since(start)
}

// repeatSetup runs setup reps times, closing all but the last environment,
// and returns the last one with the median of the times setup reported: a
// single set-up is too short and too noisy to carry a regression bound.
// setup is told when it builds the environment that will be kept, and
// reports the time of its user-visible part itself.
func repeatSetup[E any](reps int, setup func(keep bool) (E, time.Duration, error), closeEnv func(E)) (env E, medianSeconds float64, err error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		var took time.Duration
		if env, took, err = setup(i == reps-1); err != nil {
			return env, 0, err
		}
		times = append(times, took.Seconds())
	}
	return env, medianFloat(times), nil
}

// memCounters is the part of runtime.MemStats the alloc metrics use.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc}
}

// setOpMetrics fills the end-to-end metrics every workload shares from one
// measured window.
func (r *Result) setOpMetrics(lat *Hist, tailQ float64, ops int64, elapsed time.Duration, before, after memCounters) {
	r.set("op_p50_us", lat.P50()/1e3, lat.Count())
	r.setQuantile("op_tail_us", lat, tailQ, 1e3)
	if ops > 0 && elapsed > 0 {
		r.set("ops_per_s", float64(ops)/elapsed.Seconds(), int(ops))
		r.set("allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), int(ops))
		r.set("bytes_per_op", float64(after.bytes-before.bytes)/float64(ops), int(ops))
	}
}

// medianFloat is the median of xs (mean of the middle two when even).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
