package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	doctagger "repro"
	"repro/internal/baseline"
	"repro/internal/cempar"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// Frozen parameters of the direct-* workloads.
const (
	directPeers = 16
	// tagThreshold and tagMaxTags are doctagger.Config's defaults, which
	// the recomposed stack must repeat to select the same tags.
	tagThreshold = 0.5
	tagMaxTags   = 4
	// directTailQ is the level op_tail_us reports on direct-*. Not p99: the
	// load cycles through ~275 texts, each 0.36 % of the ops, so p99 sits on
	// the step between the third and the second longest document and reads
	// one or the other from run to run (63 or 79 us on direct-local, 5.0 or
	// 5.9 ms on direct-cempar). p95 rests on fourteen documents.
	directTailQ = 0.95
	// pairedBlock is how many ops the traced stack and its untraced
	// baseline answer in turn on a traced run: ~1 ms of direct-local, ~0.1 s
	// of direct-cempar, short against the seconds over which the box drifts.
	pairedBlock = 32
)

// directSetupReps is how often set-up is repeated for the median setup_s;
// a CEMPaR bootstrap costs ~20x a local one.
var directSetupReps = map[string]int{"local": 21, "cempar": 3}

// buildTimes is what one Tagger bootstrap cost, per step.
type buildTimes struct {
	addDocument Hist // per AddDocument call, ns
	train       time.Duration
}

// buildTaggerTimed is the user-visible bootstrap — New, AddDocument per
// labeled document, Train — with each step timed.
func (c *corpus) buildTaggerTimed(protocol string, bt *buildTimes) (*doctagger.Tagger, error) {
	t, err := doctagger.New(doctagger.Config{Protocol: protocol, Peers: directPeers, Seed: corpusSeed, Parallel: 1})
	if err != nil {
		return nil, err
	}
	for _, d := range c.train {
		t0 := time.Now()
		if err := t.AddDocument(d.User%directPeers, d.Text, d.Tags...); err != nil {
			return nil, err
		}
		bt.addDocument.Record(int64(time.Since(t0)))
	}
	t0 := time.Now()
	if err := t.Train(); err != nil {
		return nil, err
	}
	bt.train = time.Since(t0)
	return t, nil
}

// serialReference answers every query once, in order, on t: the answers
// the measured runs are checked against.
func serialReference(t *doctagger.Tagger, queries []string) ([][]string, error) {
	ref := make([][]string, len(queries))
	for i, q := range queries {
		tags, err := t.AutoTag(q)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		ref[i] = tags
	}
	return ref, nil
}

// runDirect is direct-local and direct-cempar: one goroutine, closed loop,
// Tagger.AutoTag, cycling through the test split.
func runDirect(o runOpts, proto string) (*Result, error) {
	res := newResult(o)
	reps := o.reps(directSetupReps[proto])
	type env struct {
		c  *corpus
		t  *doctagger.Tagger
		bt *buildTimes
	}
	e, setupS, err := repeatSetup(reps, func(bool) (env, time.Duration, error) {
		t0 := time.Now()
		c, err := newCorpus(o.shape, o.seed)
		if err != nil {
			return env{}, 0, err
		}
		bt := &buildTimes{}
		t, err := c.buildTaggerTimed(proto, bt)
		return env{c, t, bt}, time.Since(t0), err
	}, func(env) {})
	if err != nil {
		return nil, err
	}
	ref, err := serialReference(e.t, e.c.queries)
	if err != nil {
		return nil, err
	}
	o.logf("%s: set up in %.3fs (median of %d), %d train / %d test docs", o.workload, setupS, reps, len(e.c.train), len(e.c.test))

	op := func(i int) (time.Duration, bool) {
		qi := e.c.query(i)
		t0 := time.Now()
		tags, err := e.t.AutoTag(e.c.queries[qi])
		d := time.Since(t0)
		return d, err == nil && slices.Equal(tags, ref[qi])
	}
	if !o.trace {
		closedLoop(o.warmup(), nil, op)
		var lat Hist
		before := readMem()
		ops, failed, elapsed := closedLoop(o.window(1), &lat, op)
		after := readMem()
		res.Attempted = ops
		if failed > 0 {
			res.fail(failed, "%d answers differ from the serial reference", failed)
		}
		res.set("setup_s", setupS, reps)
		res.setOpMetrics(&lat, directTailQ, ops, elapsed, before, after)
		res.set("f1_micro", e.c.f1Micro(ref), len(ref))
		return res, nil
	}

	// Traced run: the stack recomposed from the constructors doctagger.New
	// uses, with a span around every call into a layer, replaying the
	// identical query sequence. It runs in blocks of pairedBlock ops, and
	// before each block the untraced Tagger answers the same queries: the
	// baseline the tracing overhead is judged against. Both sides see the
	// same queries under the same state of the host, so the ratio of their
	// medians is the tracing, not how busy the box was that second.
	closedLoop(o.warmup(), nil, op)
	st, err := newDirectStack(e.c, proto)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(spanCapacity)
	st.rec = rec
	var plain, traced Hist
	var cycle simnetCounts
	deadline := time.Now().Add(o.window(0.7))
	before := st.net.Stats()
	for first := 0; !rec.full() && (first < len(ref) || time.Now().Before(deadline)); first += pairedBlock {
		for i := first; i < first+pairedBlock; i++ {
			d, ok := op(i)
			plain.Record(int64(d))
			res.Attempted++
			if !ok {
				res.fail(1, "answer to query %d differs from the serial reference", e.c.query(i))
			}
		}
		for i := first; i < first+pairedBlock && !rec.full(); i++ {
			qi := e.c.query(i)
			d, tags := st.tracedOp(int32(i+1), e.c.queries[qi])
			traced.Record(int64(d))
			res.Attempted++
			if !slices.Equal(tags, ref[qi]) {
				res.fail(1, "recomposed %s stack answers query %d differently from Tagger.AutoTag", proto, qi)
			}
			if i == len(ref)-1 {
				// One full pass over the test split: these counts repeat
				// exactly for a seed, whatever the speed of the machine.
				after := st.net.Stats()
				cycle = simnetCounts{
					ops: int64(len(ref)), events: st.events,
					msgs: after.MessagesSent - before.MessagesSent, bytes: after.BytesSent - before.BytesSent,
				}
			}
		}
	}
	spans := rec.recorded()
	led, self := spanLedger(spans)
	led.print(o.logw())

	res.set("doctagger.train_ms", float64(e.bt.train)/1e6, 1)
	res.set("doctagger.add_document_us", e.bt.addDocument.P50()/1e3, e.bt.addDocument.Count())
	res.set("protocol.select_ns_p50", self[spanSelect].P50(), self[spanSelect].Count())
	res.setLedger(led, &traced, &plain, true)
	res.set("trace.spans", float64(len(spans)), 0)
	if cycle.ops > 0 {
		res.set("simnet.events_per_op", float64(cycle.events)/float64(cycle.ops), int(cycle.ops))
		res.set("simnet.msgs_per_op", float64(cycle.msgs)/float64(cycle.ops), int(cycle.ops))
		res.set("simnet.bytes_per_op", float64(cycle.bytes)/float64(cycle.ops), int(cycle.ops))
	}
	probeTextproc(res, e.c, o.window(0.06))
	if proto == "local" {
		probeLinearBank(res, e.c, o.window(0.06))
	} else {
		res.set("cempar.issue_ns_p50", self[spanIssue].P50(), self[spanIssue].Count())
		res.set("simnet.run_ns_p50", self[spanSimRun].P50(), self[spanSimRun].Count())
		probeKernelDecision(res, e.c, o.window(0.04))
		probeSimnetEngine(res, corpusSeed)
		lookupEvents := probeDHT(res, corpusSeed, o.window(0.04))
		// What the event loop and routing do not explain is the CEMPaR
		// handlers' own work (kernel decisions, vote aggregation).
		lookups := float64(cemparRegions(directPeers))
		events := res.Metrics["simnet.events_per_op"].Value
		engine := res.Metrics["simnet.engine_ns_per_event"].Value
		res.set("cempar.handler_ns_per_op", self[spanSimRun].P50()-
			lookups*res.Metrics["dht.lookup_ns_p50"].Value-
			(events-lookups*lookupEvents)*engine, self[spanSimRun].Count())
	}
	return res, o.saveSpans(rec)
}

// simnetCounts are the simulated-network totals of one full query cycle.
type simnetCounts struct{ ops, events, msgs, bytes int64 }

// cemparRegions repeats doctagger.Config's default region count.
func cemparRegions(peers int) int {
	if peers >= 32 {
		return 4
	}
	return 2
}

// directStack is the tagging stack of doctagger.New rebuilt from the same
// public constructors with the same seeds, so that the benchmark can put a
// span around each layer's call — Tagger itself is opaque from outside.
type directStack struct {
	pre    *textproc.Preprocessor
	net    *simnet.Network
	clf    protocol.Classifier
	stream protocol.StreamScorer // non-nil on the local protocol
	rec    *Recorder
	events int64 // Network.Run return values, summed

	// Per-op state, reused so tracing adds no allocation of its own.
	trace, parent int32
	scores        []metrics.ScoredTag
	answered      bool
	scratch       []metrics.ScoredTag
	visit         func([]vector.Entry)
	onScores      func([]metrics.ScoredTag, bool)
}

func newDirectStack(c *corpus, proto string) (*directStack, error) {
	st := &directStack{
		pre: textproc.NewPreprocessor(nil, textproc.Options{Weighting: textproc.TermFrequency, Normalize: true}),
		net: simnet.New(simnet.Options{
			Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 60 * time.Millisecond},
			Seed:    corpusSeed + 1,
		}),
	}
	ids := make([]simnet.NodeID, directPeers)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var setDocs func(simnet.NodeID, []protocol.Doc)
	switch proto {
	case "cempar":
		var s *cempar.System
		ring := dht.New(st.net, ids, func(id simnet.NodeID) simnet.Handler {
			return simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
				if s != nil {
					s.Handler(id).HandleMessage(nn, m)
				}
			})
		})
		s = cempar.New(ring, cempar.Config{Regions: cemparRegions(directPeers), Weighted: true, Seed: corpusSeed + 2})
		st.clf, setDocs = s, s.SetDocs
	case "local":
		l := baseline.NewLocal(st.net, ids, 1, corpusSeed+5)
		st.clf, st.stream, setDocs = l, l, l.SetDocs
	default:
		return nil, errors.New("no recomposed stack for protocol " + proto)
	}
	// Vectorize in AddDocument order: lexicon ids are assigned first come,
	// first served, and the features must match the Tagger's bit for bit.
	staged := make(map[simnet.NodeID][]protocol.Doc)
	for _, d := range c.train {
		id := simnet.NodeID(d.User % directPeers)
		staged[id] = append(staged[id], protocol.Doc{X: st.pre.Vectorize(d.Text), Tags: slices.Clone(d.Tags)})
	}
	for _, id := range ids {
		if docs := staged[id]; len(docs) > 0 {
			setDocs(id, docs)
		}
	}
	st.clf.Fit()
	st.net.Run(0)

	st.onScores = func(sc []metrics.ScoredTag, ok bool) {
		st.answered = ok
		st.scores = append(st.scores[:0], sc...)
	}
	st.visit = func(entries []vector.Entry) {
		t0 := st.rec.now()
		st.stream.PredictEntries(0, entries, st.onScores)
		st.rec.add(st.trace, st.parent, spanScore, t0, st.rec.now())
	}
	return st, nil
}

// tracedOp is Tagger.AutoTag spelled out, one span per layer call.
func (st *directStack) tracedOp(trace int32, text string) (time.Duration, []string) {
	rec := st.rec
	start := rec.now()
	st.trace, st.answered = trace, false
	root := rec.begin(trace, 0, spanOp, start)
	if st.stream != nil {
		// The score span nests inside vectorize (the visit callback runs
		// before the pooled workspace is returned), so vectorize's self
		// time is the preprocessing alone.
		st.parent = rec.begin(trace, root, spanVectorize, start)
		st.pre.VectorizeInto(text, st.visit)
		rec.end(st.parent, rec.now())
		st.events += int64(st.net.Run(0))
	} else {
		x := st.pre.Vectorize(text)
		t1 := rec.now()
		rec.add(trace, root, spanVectorize, start, t1)
		st.clf.Predict(0, x, st.onScores)
		t2 := rec.now()
		rec.add(trace, root, spanIssue, t1, t2)
		st.events += int64(st.net.Run(0))
		rec.add(trace, root, spanSimRun, t2, rec.now())
	}
	var tags []string
	if st.answered {
		t3 := rec.now()
		tags, st.scratch = protocol.SelectTagsInto(nil, st.scores, st.scratch, tagThreshold, tagMaxTags)
		rec.add(trace, root, spanSelect, t3, rec.now())
	}
	end := rec.now()
	rec.end(root, end)
	return time.Duration(end - start), tags
}
