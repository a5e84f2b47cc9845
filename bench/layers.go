package main

import (
	"bytes"
	"time"

	"repro/internal/dht"
	"repro/internal/protocol"
	"repro/internal/realnet"
	"repro/internal/simnet"
	"repro/internal/svm"
	"repro/internal/textproc"
	"repro/internal/vector"
	"repro/internal/wire"
)

// The probes below time one layer's public function on its own, outside
// any workload, during a traced run. Each takes the slice of the run it
// may spend and writes the layer's rows into the result. A workload runs
// only the probes of the layers it exercises; the other rows stay 0.

// warmPreprocessor is the preprocessor doctagger.New configures, with its
// lexicon warmed on the train split as a trained Tagger's is.
func warmPreprocessor(c *corpus) (*textproc.Preprocessor, []protocol.Doc) {
	pre := textproc.NewPreprocessor(nil, textproc.Options{Weighting: textproc.TermFrequency, Normalize: true})
	docs := make([]protocol.Doc, len(c.train))
	for i, d := range c.train {
		docs[i] = protocol.Doc{X: pre.Vectorize(d.Text), Tags: d.Tags}
	}
	return pre, docs
}

// timeCalls runs call(i) for d and records each call's nanoseconds.
func timeCalls(d time.Duration, h *Hist, call func(i int)) (calls int) {
	deadline := time.Now().Add(d)
	for ; calls == 0 || time.Now().Before(deadline); calls++ {
		t0 := time.Now()
		call(calls)
		h.Record(int64(time.Since(t0)))
	}
	return calls
}

// probeTextproc times the streaming single-document path and its
// materialized batch twin.
func probeTextproc(res *Result, c *corpus, d time.Duration) {
	pre, _ := warmPreprocessor(c)
	var terms int64
	visit := func(entries []vector.Entry) { terms += int64(len(entries)) }
	var h Hist
	before := readMem()
	calls := timeCalls(d/2, &h, func(i int) { pre.VectorizeInto(c.queries[i%len(c.queries)], visit) })
	after := readMem()
	res.set("textproc.vectorize_ns_p50", h.P50(), calls)
	res.setQuantile("textproc.vectorize_ns_p99", &h, 0.99, 1)
	res.set("textproc.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(calls), calls)
	res.set("textproc.terms_per_doc", float64(terms)/float64(calls), calls)

	var batches Hist
	n := timeCalls(d/2, &batches, func(int) { pre.VectorizeBatch(c.queries, 1) })
	res.set("textproc.vectorize_batch_ns_per_doc", batches.P50()/float64(len(c.queries)), n*len(c.queries))
}

// trainLinearBank trains the one-vs-all linear bank over docs, one model
// per tag, and reports the wall time.
func trainLinearBank(docs []protocol.Doc, seed int64) (map[string]*svm.LinearModel, time.Duration) {
	t0 := time.Now()
	bank := make(map[string]*svm.LinearModel)
	for _, tag := range protocol.TagUniverse(docs) {
		m, err := svm.TrainLinear(protocol.BinaryExamples(docs, tag), svm.LinearOptions{C: 1, Seed: seed})
		if err != nil {
			continue // one-class tag: nothing to separate
		}
		bank[tag] = m
	}
	return bank, time.Since(t0)
}

// scoreBurst is how many fused-score calls share one clock read pair: a
// single call is a few hundred nanoseconds, close to the clock's own cost.
const scoreBurst = 8

// probeLinearBank times linear training and fused scoring on a bank
// trained over the whole train split.
func probeLinearBank(res *Result, c *corpus, d time.Duration) {
	pre, docs := warmPreprocessor(c)
	bank, took := trainLinearBank(docs, corpusSeed)
	res.set("svm.train_linear_ms", float64(took)/1e6, len(bank))
	fused := svm.NewFusedLinear(bank)
	if fused == nil {
		return
	}
	res.set("svm.fused_layout", float64(fused.Layout()), 0)
	entries := make([][]vector.Entry, len(c.queries))
	for i, q := range c.queries {
		entries[i] = pre.Vectorize(q).Entries()
	}
	var h Hist
	var dst []float64
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i += scoreBurst {
		t0 := time.Now()
		for k := 0; k < scoreBurst; k++ {
			dst = fused.ScoreEntriesInto(entries[(i+k)%len(entries)], dst)
		}
		h.Record(int64(time.Since(t0)) / scoreBurst)
	}
	res.set("svm.fused_score_ns_p50", h.P50(), h.Count()*scoreBurst)
}

// probeKernelDecision times KernelModel.Decision on a model the size of a
// CEMPaR regional one: an RBF SVM for the most common tag over the
// documents of one region's worth of peers.
func probeKernelDecision(res *Result, c *corpus, d time.Duration) {
	pre, docs := warmPreprocessor(c)
	region := docs[:len(docs)/cemparRegions(directPeers)]
	var model *svm.KernelModel
	for _, tag := range protocol.TagUniverse(region) {
		m, err := svm.TrainKernel(protocol.BinaryExamples(region, tag), svm.KernelOptions{
			Kernel: svm.Kernel{Kind: svm.KernelRBF, Gamma: 1}, C: 1, Seed: corpusSeed,
		})
		if err == nil && (model == nil || len(m.SVs) > len(model.SVs)) {
			model = m
		}
	}
	if model == nil {
		return
	}
	xs := pre.VectorizeBatch(c.queries, 1)
	var h Hist
	sink := 0.0
	calls := timeCalls(d, &h, func(i int) { sink += model.Decision(xs[i%len(xs)]) })
	_ = sink
	res.set("svm.kernel_decision_ns_p50", h.P50(), calls)
}

// probeSimnetEngine measures the bare event loop: token passing between
// nodes whose handlers do almost nothing, on one shard.
func probeSimnetEngine(res *Result, seed int64) {
	w := simnet.NewWorkload(simnet.WorkloadConfig{Nodes: directPeers, Tokens: 64, TTL: 256, Work: 1, Seed: seed})
	before := readMem()
	t0 := time.Now()
	events := w.Run()
	took := time.Since(t0)
	after := readMem()
	if events == 0 {
		return
	}
	res.set("simnet.engine_ns_per_event", float64(took)/float64(events), events)
	res.set("simnet.engine_allocs_per_event", float64(after.mallocs-before.mallocs)/float64(events), events)
}

// probeDHT times one lookup (issue plus the network run that resolves it)
// on a ring of directPeers nodes with no application handler, and returns
// the simulated events one lookup takes.
func probeDHT(res *Result, seed int64, d time.Duration) (eventsPerLookup float64) {
	net := simnet.New(simnet.Options{
		Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 60 * time.Millisecond},
		Seed:    seed + 1,
	})
	ids := make([]simnet.NodeID, directPeers)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	ring := dht.New(net, ids, nil)
	net.Run(0)
	regions := cemparRegions(directPeers)
	var hops, events int64
	onResult := func(lr dht.LookupResult) { hops += int64(lr.Hops) }
	var h Hist
	calls := timeCalls(d, &h, func(i int) {
		_ = ring.Lookup(0, dht.SuperPeerKey(i%regions, regions), onResult) // origin 0 is a ring member and alive
		events += int64(net.Run(0))
	})
	res.set("dht.lookup_ns_p50", h.P50(), calls)
	res.set("dht.hops_per_lookup", float64(hops)/float64(calls), calls)
	return float64(events) / float64(calls)
}

// wireSet converts a model set to the bank encoding internal/wire writes.
func wireSet(ms *realnet.ModelSet) map[string]wire.CalibratedModel {
	out := make(map[string]wire.CalibratedModel, len(ms.Models))
	for tag, m := range ms.Models {
		out[tag] = wire.CalibratedModel{Model: m, Platt: ms.Platt[tag], Accuracy: ms.Accuracy[tag]}
	}
	return out
}

// probeWire times encoding and decoding the published sets.
func probeWire(res *Result, sets []*realnet.ModelSet) error {
	var enc, dec Hist
	var size int
	for _, ms := range sets {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := wire.WriteModelSet(&buf, wireSet(ms)); err != nil {
			return err
		}
		enc.Record(int64(time.Since(t0)))
		size = buf.Len()
		t0 = time.Now()
		if _, err := wire.ReadModelSet(&buf); err != nil {
			return err
		}
		dec.Record(int64(time.Since(t0)))
	}
	res.set("wire.encode_ms", enc.P50()/1e6, enc.Count())
	res.set("wire.decode_ms", dec.P50()/1e6, dec.Count())
	res.set("wire.set_bytes", float64(size), 0)
	return nil
}

// probeEnsemble times Ensemble.AutoTagBatch per document: the cost of a
// cold read on a mesh node.
func probeEnsemble(res *Result, c *corpus, set *realnet.ModelSet, d time.Duration) error {
	e, err := realnet.NewEnsemble(tagThreshold, tagMaxTags, set)
	if err != nil {
		return err
	}
	var h Hist
	calls := timeCalls(d, &h, func(int) { _, _ = e.AutoTagBatch(c.queries) }) // an Ensemble's error is always nil
	res.set("realnet.ensemble_ns_per_doc", h.P50()/float64(len(c.queries)), calls*len(c.queries))
	return nil
}
