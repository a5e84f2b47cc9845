package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	doctagger "repro"
)

// serveKind is the frozen shape of one serve-* workload. Nothing here is
// calibrated at run time: a faster program must not be handed more load.
type serveKind struct {
	protocol  string
	shards    int
	open      bool    // open loop at rate; otherwise one closed-loop client
	rate      float64 // arrivals per second (open loop)
	tailQ     float64 // the level op_tail_us reports
	setupReps int
}

var (
	// serve-lone reports p95: every op is one timer wait, and beside a busy
	// neighbour a run's slowest hundredth waited out an OS time slice as
	// well (p99 read 2.4 ms on most runs, 3.2 and 5.1 ms on some; p95 stayed
	// within 2.32-2.45 ms).
	serveLone = serveKind{protocol: "local", shards: 2, tailQ: 0.95, setupReps: 15}
	// serve-open has one shard: with two, two CPU-bound engines share the
	// reference box's two cores with the pacer and the request goroutines,
	// and whenever the host granted less than both cores the queue behind
	// them grew (beside a neighbour busy half the time its p90 read 26 to
	// 38 ms instead of 15 ms; with one shard it read the same with and
	// without). It reports p90: its p99 rests on the ~20 slowest requests.
	serveOpen = serveKind{protocol: "cempar", shards: 1, open: true, rate: serveOpenRate, tailQ: 0.9, setupReps: 3}
)

const (
	// serveOpenRate is R of serve-open. It was chosen once, on seed 1, so
	// that the traced run shows serving.engine_busy_ratio within
	// 0.35-0.60, and then frozen; bench/README.md has the probing run.
	serveOpenRate = 110
	// serveMaxInflight is the default ServerConfig's MaxQueue (8*MaxBatch):
	// an arrival that finds this many requests in flight is a failed op
	// instead of a stalled pacer.
	serveMaxInflight = 256
	// bulkBatch and bulkCallers shape the serving.bulk_docs_per_s probe.
	bulkBatch   = 256
	bulkCallers = 2
	// ladderLimit is the latency limit of serving.max_rate_ok_per_s: about
	// six service times of one CEMPaR query (3.8 ms) plus the MaxDelay
	// wait, which an idle pool already spends 12 ms of at p99.
	ladderLimit = 25 * time.Millisecond
)

// ladderRates are the fixed open-loop steps of the rate ladder, each with
// its own p99 row.
var ladderRates = []struct {
	rate   float64
	metric string
}{
	{50, "serving.p99_us_r50"},
	{100, "serving.p99_us_r100"},
	{150, "serving.p99_us_r150"},
	{200, "serving.p99_us_r200"},
}

// serveEnv is a built serve-* system plus what the checks need.
type serveEnv struct {
	c      *corpus
	srv    *doctagger.Server
	ref    [][]string
	bt     buildTimes   // shard 0's bootstrap, step by step
	engine *engineTrace // non-nil on a traced run
	asked  atomic.Int64 // rows requested of the server so far
}

// setupServe is the operator-visible set-up: corpus, one trained tagger
// per shard, server. The serial reference is computed on shard 0's tagger
// before the server takes ownership, outside the reported time.
func setupServe(o runOpts, k serveKind, withRef bool) (*serveEnv, time.Duration, error) {
	t0 := time.Now()
	c, err := newCorpus(o.shape, o.seed)
	if err != nil {
		return nil, 0, err
	}
	e := &serveEnv{c: c}
	taggers := make([]*doctagger.Tagger, k.shards)
	for i := range taggers {
		bt := &buildTimes{}
		if i == 0 {
			bt = &e.bt
		}
		if taggers[i], err = c.buildTaggerTimed(k.protocol, bt); err != nil {
			return nil, 0, err
		}
	}
	timed := time.Since(t0)
	if withRef {
		if e.ref, err = serialReference(taggers[0], c.queries); err != nil {
			return nil, 0, err
		}
	}
	t0 = time.Now()
	if o.trace {
		// The timing decorator needs the Engine seam; untraced runs use
		// the plain NewServer a caller would.
		e.engine = newEngineTrace(c.queries)
		engines := make([]doctagger.Engine, len(taggers))
		for i, t := range taggers {
			engines[i] = &tracedEngine{inner: t, tr: e.engine}
		}
		e.srv, err = doctagger.NewEngineServer(doctagger.ServerConfig{}, engines...)
	} else {
		e.srv, err = doctagger.NewServer(doctagger.ServerConfig{}, taggers...)
	}
	if err != nil {
		return nil, 0, err
	}
	return e, timed + time.Since(t0), nil
}

// request issues query qi as one op that was due at due, checks the answer
// against the reference and, on a traced slice, records the op's spans.
func (e *serveEnv) request(qi int, due time.Time) (time.Duration, bool) {
	trace := int32(e.asked.Add(1))
	tags, err := e.srv.Tag(context.Background(), e.c.queries[qi])
	done := time.Now()
	if e.engine != nil {
		e.engine.noteRequest(trace, qi, due, done)
	}
	return done.Sub(due), err == nil && slices.Equal(tags, e.ref[qi])
}

// loadOutcome is one measured slice of a serve-* load.
type loadOutcome struct {
	lat             Hist
	ops, failed     int64
	elapsed         time.Duration
	before, after   memCounters
	late            Hist
	inflightMax     int64
	stats0, stats1  doctagger.ServerStats
	completedInTime int64 // open loop: requests that finished before the schedule's end
}

// load drives the workload's frozen shape for d after a warm-up and
// returns what the clients saw. startMeasure runs at the boundary between
// warm-up and measurement.
func (e *serveEnv) load(k serveKind, rate float64, warm, d time.Duration, purpose string, startMeasure func()) *loadOutcome {
	out := &loadOutcome{}
	began := false
	begin := func() {
		began = true
		if startMeasure != nil {
			startMeasure()
		}
		out.stats0 = e.srv.Stats()
		out.before = readMem()
	}
	if !k.open {
		op := func(i int) (time.Duration, bool) { return e.request(e.c.query(i), time.Now()) }
		closedLoop(warm, nil, op)
		begin()
		out.ops, out.failed, out.elapsed = closedLoop(d, &out.lat, op)
		out.after = readMem()
		out.stats1 = e.srv.Stats()
		return out
	}
	sched := poissonSchedule(frozenRng("arrivals", purpose), rate, warm+d)
	first := len(sched)
	for i, off := range sched {
		if off >= warm {
			first = i
			break
		}
	}
	l := &openLoad{sched: sched, maxInflight: serveMaxInflight}
	l.issue = func(i int, due time.Time) (time.Duration, bool) { return e.request(e.c.query(i), due) }
	start := time.Now()
	l.run(start, first, begin)
	if !began {
		begin() // nothing was due inside the window
	}
	out.elapsed = time.Since(start.Add(warm))
	out.after = readMem()
	out.stats1 = e.srv.Stats()
	for i := first; i < len(sched); i++ {
		out.ops++
		switch took := l.lat[i]; {
		case took < 0:
			out.failed++
		default:
			out.lat.Record(took)
			if sched[i]+time.Duration(took) <= warm+d {
				out.completedInTime++
			}
		}
	}
	out.late, out.inflightMax = l.late, l.inflightMax
	return out
}

// runServe is serve-lone and serve-open.
func runServe(o runOpts, k serveKind) (*Result, error) {
	res := newResult(o)
	reps := o.reps(k.setupReps)
	e, setupS, err := repeatSetup(reps,
		func(keep bool) (*serveEnv, time.Duration, error) { return setupServe(o, k, keep) },
		func(env *serveEnv) { env.srv.Close() })
	if err != nil {
		return nil, err
	}
	defer e.srv.Close()
	o.logf("%s: set up in %.3fs (median of %d), %d train / %d test docs", o.workload, setupS, reps, len(e.c.train), len(e.c.test))
	stats0 := e.srv.Stats()

	if !o.trace {
		out := e.load(k, k.rate, o.warmup(), o.window(1), "window", nil)
		res.Attempted = out.ops
		if out.failed > 0 {
			res.fail(out.failed, "%d requests failed, were refused or answered differently from the serial reference", out.failed)
		}
		res.checkAccounting("server", stats0, e.srv.Stats(), e.asked.Load())
		res.checkLate(&out.late)
		res.set("setup_s", setupS, reps)
		res.setOpMetrics(&out.lat, k.tailQ, out.ops-out.failed, out.elapsed, out.before, out.after)
		res.set("f1_micro", e.c.f1Micro(e.ref), len(e.ref))
		return res, nil
	}

	// Traced run: the load untraced first (the overhead baseline), then
	// with request and engine spans, then the serving probes. Both slices
	// replay one arrival schedule and one query sequence, so their medians
	// differ by the tracing and not by the draw of the arrivals.
	tr := e.engine
	plain := e.load(k, k.rate, o.warmup(), o.window(0.3), "traced", nil)
	rec := newRecorder(spanCapacity)
	traced := e.load(k, k.rate, o.warmup(), o.window(0.3), "traced", func() { tr.start(rec) })
	tr.stop()
	res.Attempted = plain.ops + traced.ops
	if failed := plain.failed + traced.failed; failed > 0 {
		res.fail(failed, "%d requests failed, were refused or answered differently from the serial reference", failed)
	}

	spans := rec.recorded()
	led, _ := spanLedger(spans)
	led.print(o.logw())
	res.set("doctagger.train_ms", float64(e.bt.train)/1e6, 1)
	res.set("doctagger.add_document_us", e.bt.addDocument.P50()/1e3, e.bt.addDocument.Count())
	res.set("serving.engine_batch_ns_p50", tr.dur.P50(), tr.dur.Count())
	res.set("serving.engine_busy_ratio", float64(tr.busy)/(float64(traced.elapsed)*float64(k.shards)), tr.dur.Count())
	res.set("serving.batch_size_mean", tr.sizes.Mean(), tr.sizes.Count())
	res.setQuantile("serving.batch_size_p99", &tr.sizes, 0.99, 1)
	res.set("serving.overhead_us_p50", tr.overhead.P50()/1e3, tr.overhead.Count())
	res.setQuantile("serving.overhead_us_p99", &tr.overhead, 0.99, 1e3)
	s0, s1 := traced.stats0, traced.stats1
	if served := s1.Served - s0.Served; served > 0 {
		res.set("serving.queue_wait_us_mean", float64(s1.QueueWaitTotal-s0.QueueWaitTotal)/1e3/float64(served), int(served))
	}
	res.set("serving.batches", float64(s1.Batches-s0.Batches), 0)
	res.set("serving.rejected", float64(s1.Rejected-s0.Rejected), 0)
	res.set("serving.coalesced", float64(s1.Coalesced-s0.Coalesced), 0)
	res.set("serving.deduped", float64(s1.Deduped-s0.Deduped), 0)
	res.set("serving.cache_evictions", float64(s1.CacheEvictions-s0.CacheEvictions), 0)
	if lookups := (s1.CacheHits - s0.CacheHits) + (s1.CacheMisses - s0.CacheMisses); lookups > 0 {
		res.set("serving.cache_hit_ratio", float64(s1.CacheHits-s0.CacheHits)/float64(lookups), int(lookups))
	}
	res.setLedger(led, &traced.lat, &plain.lat, false)
	res.set("trace.spans", float64(len(spans)), 0)
	if k.open {
		res.set("gen.late_p99_us", traced.late.quantile(0.99)/1e3, traced.late.Count())
		res.set("gen.inflight_max", float64(traced.inflightMax), 0)
		res.checkLate(&traced.late)
		e.rateLadder(o, k, res)
		e.bulk(o, res)
		probeTextproc(res, e.c, o.window(0.04))
	}
	res.checkAccounting("server", stats0, e.srv.Stats(), e.asked.Load())
	return res, o.saveSpans(rec)
}

// rateLadder steps the open-loop rate through ladderRates and reports each
// step's p99 and the highest rate that stays under ladderLimit with no
// failure and no growing backlog. One step is too short to carry a bound,
// which is why the knee is a per-layer row and not an end-to-end metric.
func (e *serveEnv) rateLadder(o runOpts, k serveKind, res *Result) {
	knee, broken := 0.0, false
	for _, step := range ladderRates {
		out := e.load(k, step.rate, 0, o.window(0.06), step.metric, nil)
		res.setQuantile(step.metric, &out.lat, 0.99, 1e3)
		p99, _ := out.lat.Quantile(0.99)
		ok := out.failed == 0 && p99 <= float64(ladderLimit) &&
			float64(out.completedInTime) >= 0.98*float64(out.ops)
		if ok && !broken {
			knee = step.rate
		}
		broken = broken || !ok
	}
	res.set("serving.max_rate_ok_per_s", knee, 0)
}

// bulk measures capacity without the MaxDelay timer: bulkCallers callers,
// closed loop, each submitting bulkBatch documents per TagBatch.
func (e *serveEnv) bulk(o runOpts, res *Result) {
	texts := make([]string, bulkBatch)
	want := make([][]string, bulkBatch)
	for i := range texts {
		texts[i], want[i] = e.c.queries[i%len(e.c.queries)], e.ref[i%len(e.ref)]
	}
	var docs, wrong atomic.Int64
	start := time.Now()
	deadline := start.Add(o.window(0.08))
	var wg sync.WaitGroup
	for c := 0; c < bulkCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				e.asked.Add(bulkBatch)
				got, err := e.srv.TagBatch(context.Background(), texts)
				docs.Add(bulkBatch)
				if err != nil || !slices.EqualFunc(got, want, func(a, b []string) bool { return slices.Equal(a, b) }) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.Attempted += docs.Load() / bulkBatch
	if n := wrong.Load(); n > 0 {
		res.fail(n, "%d TagBatch calls failed or answered differently from the serial reference", n)
	}
	res.set("serving.bulk_docs_per_s", float64(docs.Load())/time.Since(start).Seconds(), int(docs.Load()))
}

// engineTrace is what the timing decorators around the shard engines
// collect: per-batch durations and sizes, and for every query text the
// interval of the batch that last answered it, which is how a request span
// finds the engine span that served it.
type engineTrace struct {
	index map[string]int // query text -> index

	mu       sync.Mutex
	rec      *Recorder // non-nil while a traced slice collects
	last     []batchInterval
	dur      Hist
	sizes    Hist
	overhead Hist  // per request: latency minus the engine span that answered it
	busy     int64 // ns inside AutoTagBatch, summed over shards
}

type batchInterval struct{ start, end int64 }

func newEngineTrace(queries []string) *engineTrace {
	tr := &engineTrace{index: make(map[string]int, len(queries)), last: make([]batchInterval, len(queries))}
	for i, q := range queries {
		tr.index[q] = i
	}
	return tr
}

func (tr *engineTrace) start(rec *Recorder) {
	tr.mu.Lock()
	tr.rec = rec
	tr.mu.Unlock()
}

func (tr *engineTrace) stop() { tr.start(nil) }

// tracedEngine times each AutoTagBatch of one shard engine.
type tracedEngine struct {
	inner doctagger.Engine
	tr    *engineTrace
}

func (e *tracedEngine) AutoTagBatch(texts []string) ([][]string, error) {
	t0 := time.Now()
	out, err := e.inner.AutoTagBatch(texts)
	t1 := time.Now()
	tr := e.tr
	tr.mu.Lock()
	if tr.rec != nil {
		iv := batchInterval{tr.rec.at(t0), tr.rec.at(t1)}
		for _, text := range texts {
			if qi, ok := tr.index[text]; ok {
				tr.last[qi] = iv
			}
		}
		tr.dur.Record(iv.end - iv.start)
		tr.sizes.Record(int64(len(texts)))
		tr.busy += iv.end - iv.start
	}
	tr.mu.Unlock()
	return out, err
}

// noteRequest records, while a traced slice collects, one request's spans:
// the op from its due time, and
// inside it the wait before the engine call that answered it, that call,
// and the hand-off after it. The load never has two requests for one text
// in flight, so the batch that last carried the text is the one that
// answered this request.
func (tr *engineTrace) noteRequest(trace int32, qi int, due, done time.Time) {
	tr.mu.Lock()
	rec, iv := tr.rec, tr.last[qi]
	if rec == nil {
		tr.mu.Unlock()
		return
	}
	start, end := rec.at(due), rec.at(done)
	answered := iv.start >= start && iv.end <= end && iv.end > iv.start
	if answered {
		tr.overhead.Record((end - start) - (iv.end - iv.start))
	}
	tr.mu.Unlock()
	root := rec.add(trace, 0, spanOp, start, end)
	if answered {
		rec.add(trace, root, spanServeWait, start, iv.start)
		rec.add(trace, root, spanServeEngine, iv.start, iv.end)
		rec.add(trace, root, spanServeWake, iv.end, end)
	}
}

// openLoad is one open-loop run: a precomputed schedule walked by one
// pacer goroutine, each request in its own goroutine from its due time.
type openLoad struct {
	sched       []time.Duration
	maxInflight int64
	// issue runs request i, due at due, and reports its latency from the
	// due time and whether it succeeded.
	issue func(i int, due time.Time) (time.Duration, bool)

	// lat has one preallocated slot per request: latency from the due
	// time in ns, or a negative marker.
	lat         []int64
	late        Hist // pacer: actual send - due, ns
	inflightMax int64
}

const (
	latFailed   = -1 // error or wrong answer
	latRejected = -2 // too many requests in flight: never sent
)

// run walks the schedule from start and returns when every request has
// finished. atIndex, if set, runs on the pacer goroutine just before
// request number at is paced: the hook for the warm-up/window boundary.
func (l *openLoad) run(start time.Time, at int, atIndex func()) {
	l.lat = make([]int64, len(l.sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	for i, off := range l.sched {
		if i == at && atIndex != nil {
			atIndex()
		}
		due := start.Add(off)
		waitUntil(due)
		l.late.Record(int64(time.Since(due)))
		n := inflight.Add(1)
		if n > l.maxInflight {
			inflight.Add(-1)
			l.lat[i] = latRejected
			continue
		}
		l.inflightMax = max(l.inflightMax, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			took, ok := l.issue(i, due)
			if !ok {
				took = latFailed
			}
			l.lat[i] = int64(took)
		}()
	}
	wg.Wait()
}
