package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	doctagger "repro"
	"repro/internal/realnet"
)

// Frozen parameters of mesh-swap (see bench/README.md).
const (
	// Two nodes, not the three of cmd/p2pserve's cluster test: a third node
	// makes both receivers relay to each other, so each publish is decoded
	// four times and three nodes' CPU-bound admission and install work
	// share the reference box's two cores with the readers. The publish
	// then took 18 ms or 30 ms depending on which goroutine the scheduler
	// kept waiting, and its median flipped between the two from run to run.
	// With two nodes the publish is one chain: encode, dial, send, admit,
	// install, with the origin's own install beside it.
	meshNodes     = 2
	meshShards    = 2
	meshCache     = 128
	meshSets      = 8   // pre-trained model sets, published round robin
	meshSubset    = 0.8 // share of the train split each set is trained on
	meshProbeDocs = 32  // holdout documents of the admission probe

	meshReadRate  = 200 // reads per second per node, fixed interval
	meshHotSet    = 16  // texts in the hot set
	meshHotRotate = 4   // hot-set texts replaced per second
	meshColdShare = 0.1 // share of reads outside the hot set

	// meshPublishGap separates a publish from the convergence of the
	// previous one, so reads run on a settled generation in between.
	meshPublishGap = 50 * time.Millisecond
	// A publish that has not reached every node by meshConvergeTimeout is
	// a failed op; so is a read slower than meshReadLimit — the latency
	// limit that makes a swap path that stalls readers visible.
	meshConvergeTimeout = 5 * time.Second
	meshReadLimit       = 250 * time.Millisecond
	// meshTailQ is the level op_tail_us reports here: a window holds
	// about 260 publishes, and between runs of one commit p90 moved twice
	// as much as p80.
	meshTailQ     = 0.8
	meshSetupReps = 3
)

// installEvent is one node's install of one generation.
type installEvent struct {
	node        int
	seq         uint64
	entry, done time.Time // OnGeneration entry (or publish return at the origin) and SwapEngines return
	build, swap time.Duration
	err         error
}

// meshNode is one in-process cluster node: a serving pool over ensemble
// engines plus a realnet mesh node, wired as cmd/p2pserve/cluster.go does.
type meshNode struct {
	id   int
	m    *mesh
	srv  *doctagger.Server
	node *realnet.Node

	// cur, prev and next are indices into mesh.sets: the set serving now,
	// the one before it and the one being swapped in. A read's answer
	// must match one of them.
	cur, prev, next atomic.Int32
	installing      atomic.Bool
	lastSeq         atomic.Uint64
	asked           atomic.Int64
	stats0          doctagger.ServerStats

	// Why reads failed: an error, over meshReadLimit, or an answer that
	// matches no generation the node could have been serving.
	readErrs, readSlow, readWrong atomic.Int64
}

// mesh is the mesh-swap system and its load.
type mesh struct {
	c        *corpus
	timed    bool // the run is long enough for meshReadLimit to apply
	sets     []*realnet.ModelSet
	trainSet Hist         // TrainModelSet wall time per set, ns
	refs     [][][]string // [set][query] reference answers
	order    []int        // publish k installs sets[order[k%len]], from origin k%meshNodes
	nodes    []*meshNode
	draining atomic.Bool
	events   chan installEvent
	nextPub  int // publishes so far; generation k+1 carries sets[order[k%len]]

	// Tracing state: rec is set while a traced slice runs, trace is the
	// publish in progress (0 between publishes).
	rec     atomic.Pointer[Recorder]
	trace   atomic.Int32
	dialsMu sync.Mutex
	dials   Hist // ns per dial, all of them while tracing
}

// setOfSeq maps a generation number to the index of the set it carries:
// publishes are strictly sequential, so generation k is publish k.
func (m *mesh) setOfSeq(seq uint64) int32 {
	return int32(m.order[int(seq-1)%len(m.order)])
}

// setupMesh is the cluster operator's set-up: corpus, the model sets,
// the nodes, and the mesh join. The reference answers are computed
// afterwards, outside the reported time.
func setupMesh(o runOpts, withRefs bool) (*mesh, time.Duration, error) {
	t0 := time.Now()
	c, err := newCorpus(o.shape, o.seed)
	if err != nil {
		return nil, 0, err
	}
	m := &mesh{c: c, timed: o.timed(), events: make(chan installEvent, meshNodes)} // one publish in flight: at most one event per node
	texts := make([]realnet.TaggedText, len(c.train))
	for i, d := range c.train {
		texts[i] = realnet.TaggedText{Text: d.Text, Tags: d.Tags}
	}
	for s := 0; s < meshSets; s++ {
		// Bootstrap subsets: every set sees a different 80 % of the train
		// split, so generations answer differently yet all pass the probe.
		rng := c.rng("model-set", fmt.Sprint(s))
		perm := rng.Perm(len(texts))
		sub := make([]realnet.TaggedText, 0, len(texts))
		for _, i := range perm[:max(1, int(meshSubset*float64(len(texts))))] {
			sub = append(sub, texts[i])
		}
		t1 := time.Now()
		ms, err := realnet.TrainModelSet(sub, 1, corpusSeed)
		if err != nil {
			return nil, 0, fmt.Errorf("train model set %d: %w", s, err)
		}
		m.trainSet.Record(int64(time.Since(t1)))
		m.sets = append(m.sets, ms)
	}
	m.order = c.rng("publish-order").Perm(meshSets)
	probe := make([]realnet.TaggedText, 0, meshProbeDocs)
	for i := 0; i < len(texts) && len(probe) < meshProbeDocs; i += max(1, len(texts)/meshProbeDocs) {
		probe = append(probe, texts[i])
	}
	var seeds []string
	for i := 0; i < meshNodes; i++ {
		n, err := m.startNode(o, i, seeds, probe)
		if err != nil {
			m.close()
			return nil, 0, err
		}
		m.nodes = append(m.nodes, n)
		seeds = []string{m.nodes[0].node.Addr()}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range m.nodes {
		for len(n.node.Peers()) < meshNodes-1 {
			if time.Now().After(deadline) {
				m.close()
				return nil, 0, errors.New("mesh membership did not form within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	timed := time.Since(t0)
	if withRefs {
		for s, ms := range m.sets {
			e, err := realnet.NewEnsemble(tagThreshold, tagMaxTags, ms)
			if err != nil {
				m.close()
				return nil, 0, err
			}
			ref, err := e.AutoTagBatch(c.queries)
			if err != nil {
				m.close()
				return nil, 0, fmt.Errorf("reference answers of set %d: %w", s, err)
			}
			m.refs = append(m.refs, ref)
		}
	}
	return m, timed, nil
}

// ensembles builds one engine per shard over set.
func ensembles(set *realnet.ModelSet) ([]doctagger.Engine, error) {
	engines := make([]doctagger.Engine, meshShards)
	for i := range engines {
		e, err := realnet.NewEnsemble(tagThreshold, tagMaxTags, set)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return engines, nil
}

// startNode brings up node id serving sets[order[0]] and joins the mesh.
func (m *mesh) startNode(o runOpts, id int, seeds []string, probe []realnet.TaggedText) (*meshNode, error) {
	n := &meshNode{id: id, m: m}
	first := int32(m.order[0])
	n.cur.Store(first)
	n.prev.Store(first)
	n.next.Store(first)
	engines, err := ensembles(m.sets[first])
	if err != nil {
		return nil, err
	}
	if n.srv, err = doctagger.NewEngineServer(doctagger.ServerConfig{CacheSize: meshCache}, engines...); err != nil {
		return nil, err
	}
	cfg := realnet.Config{
		Seed: o.seed + int64(id), Seeds: seeds, ProbeDocs: probe,
		OnGeneration: func(gen realnet.Generation) { n.onGeneration(gen, time.Now()) },
	}
	if o.trace {
		cfg.Dial = m.tracedDial
	}
	if n.node, err = realnet.Start(cfg); err != nil {
		n.srv.Close()
		return nil, err
	}
	return n, nil
}

// tracedDial is realnet's default dialer with a span around it.
func (m *mesh) tracedDial(addr string, timeout time.Duration) (net.Conn, error) {
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	t1 := time.Now()
	if rec := m.rec.Load(); rec != nil {
		m.dialsMu.Lock()
		m.dials.Record(int64(t1.Sub(t0)))
		m.dialsMu.Unlock()
		rec.add(m.trace.Load(), 0, spanDial, rec.at(t0), rec.at(t1))
	}
	return conn, err
}

// onGeneration installs a gossiped generation and reports the install to
// the publisher loop.
func (n *meshNode) onGeneration(gen realnet.Generation, entry time.Time) {
	if n.m.draining.Load() {
		return
	}
	ev := n.install(gen, entry)
	if ev.seq == 0 {
		return
	}
	select {
	case n.m.events <- ev:
	default:
		// Only possible after the publisher gave up on an earlier
		// generation; that publish is already a failed op.
	}
}

// install swaps gen into the node's pool: one ensemble per shard over the
// gossiped set, through the draining SwapEngines path. Generations older
// than the newest installed are skipped, as in cmd/p2pserve. The load
// never has two generations in flight, so installs on one node cannot
// overlap; the flag turns a violation of that into a failed check instead
// of a silent race.
func (n *meshNode) install(gen realnet.Generation, entry time.Time) installEvent {
	if gen.Seq <= n.lastSeq.Load() {
		return installEvent{}
	}
	ev := installEvent{node: n.id, seq: gen.Seq, entry: entry}
	if !n.installing.CompareAndSwap(false, true) {
		ev.err = errors.New("two generations installing on one node at once")
		return ev
	}
	defer n.installing.Store(false)
	engines, err := ensembles(gen.Set)
	built := time.Now()
	if err != nil {
		ev.err = err
		return ev
	}
	n.next.Store(n.m.setOfSeq(gen.Seq))
	if err := n.srv.SwapEngines(engines...); err != nil {
		ev.err = err
		return ev
	}
	ev.done = time.Now()
	ev.build, ev.swap = built.Sub(entry), ev.done.Sub(built)
	n.prev.Store(n.cur.Load())
	n.cur.Store(n.next.Load())
	n.lastSeq.Store(gen.Seq)
	return ev
}

// read issues one paced read on the node and checks the answer against
// the generations that may have served it.
func (n *meshNode) read(qi int, due time.Time) (time.Duration, bool) {
	n.asked.Add(1)
	tags, err := n.srv.Tag(context.Background(), n.m.c.queries[qi])
	took := time.Since(due)
	switch {
	case err != nil:
		n.readErrs.Add(1)
		return took, false
	case n.m.timed && took > meshReadLimit:
		n.readSlow.Add(1)
		return took, false
	}
	for _, set := range [...]int32{n.cur.Load(), n.prev.Load(), n.next.Load()} {
		if slices.Equal(tags, n.m.refs[set][qi]) {
			return took, true
		}
	}
	n.readWrong.Add(1)
	return took, false
}

func (m *mesh) close() {
	m.draining.Store(true)
	for _, n := range m.nodes {
		_ = n.node.Close() // the listener's close error carries nothing the run can act on
		n.srv.Close()
	}
}

// publishOutcome is one publish op as the publisher loop saw it.
type publishOutcome struct {
	start    time.Time
	converge time.Duration // publish start to the last node's SwapEngines return
	events   [meshNodes]installEvent
	origin   int
	trace    int32     // the span trace id of this publish: its generation number
	callEnd  time.Time // PublishGeneration returned
	err      error
}

// publish runs one publish op: the next set from the next origin, local
// install from the return value, then wait for every node.
func (m *mesh) publish() publishOutcome {
	k := m.nextPub
	m.nextPub++
	origin := m.nodes[k%meshNodes]
	out := publishOutcome{origin: origin.id, trace: int32(k + 1), start: time.Now()}
	m.trace.Store(out.trace) // dials made until the publish has converged belong to it
	defer m.trace.Store(0)
	gen, sum, err := origin.node.PublishGeneration(m.sets[m.order[k%len(m.order)]])
	out.callEnd = time.Now()
	switch {
	case err != nil:
		out.err = err
		return out
	case !sum.AllReached():
		out.err = fmt.Errorf("publish %d reached %d peers, failed for %d", k+1, sum.Reached, len(sum.Failed))
		return out
	case gen.Seq != uint64(k+1):
		out.err = fmt.Errorf("publish %d was assigned generation %d", k+1, gen.Seq)
		return out
	}
	pending := meshNodes
	if ev := origin.install(gen, out.callEnd); ev.seq != 0 {
		out.events[ev.node] = ev
		pending--
	}
	timeout := time.NewTimer(meshConvergeTimeout)
	defer timeout.Stop()
	for pending > 0 {
		select {
		case ev := <-m.events:
			if ev.seq != gen.Seq {
				continue // a straggler of an earlier, timed-out publish
			}
			out.events[ev.node] = ev
			pending--
		case <-timeout.C:
			out.err = fmt.Errorf("generation %d did not reach every node within %v", gen.Seq, meshConvergeTimeout)
			return out
		}
	}
	last := out.start
	for _, ev := range out.events {
		if ev.err != nil {
			out.err = fmt.Errorf("node %d could not install generation %d: %w", ev.node, gen.Seq, ev.err)
			return out
		}
		if ev.done.After(last) {
			last = ev.done
		}
	}
	out.converge = last.Sub(out.start)
	return out
}

// meshOutcome is one measured slice of the mesh-swap load.
type meshOutcome struct {
	converge              Hist
	publishes, pubFailed  int64
	reads, readFailed     int64
	readLat, late         Hist
	inflightMax           int64
	elapsed               time.Duration
	before, after         memCounters
	problems              []string
	publishCall           Hist // PublishGeneration duration
	deliver, install      Hist // per receiver: publish start to OnGeneration; per node: entry to swap return
	swap                  Hist // SwapEngines alone
	critFirst, critSecond Hist // the last finisher's two stages, which sum to converge
	dialsInPublish        int64
}

// readPlan precomputes one node's reads: a fixed-interval schedule and the
// query each read asks — 90 % from a hot set that slides through a seeded
// permutation of the test split, 10 % from anywhere.
func (m *mesh) readPlan(node int, span time.Duration, purpose string) ([]time.Duration, []int) {
	gap := time.Second / meshReadRate
	sched := pacedSchedule(meshReadRate, gap*time.Duration(node)/meshNodes, span)
	rng := m.c.rng("reads", purpose, fmt.Sprint(node))
	perm := m.c.rng("hot-set").Perm(len(m.c.queries))
	queries := make([]int, len(sched))
	for i, off := range sched {
		if rng.Float64() < meshColdShare {
			queries[i] = rng.Intn(len(perm))
			continue
		}
		base := int(off.Seconds() * meshHotRotate)
		queries[i] = perm[(base+rng.Intn(meshHotSet))%len(perm)]
	}
	return sched, queries
}

// drive runs the mesh-swap load for d after a warm-up: one paced reader
// per node and the publisher loop on the calling goroutine.
func (m *mesh) drive(warm, d time.Duration, purpose string, rec *Recorder) *meshOutcome {
	out := &meshOutcome{}
	span := warm + d
	loads := make([]*openLoad, meshNodes)
	firsts := make([]int, meshNodes)
	start := time.Now().Add(time.Millisecond)
	var readers sync.WaitGroup
	for i, n := range m.nodes {
		sched, queries := m.readPlan(i, span, purpose)
		firsts[i] = len(sched)
		for j, off := range sched {
			if off >= warm {
				firsts[i] = j
				break
			}
		}
		l := &openLoad{sched: sched, maxInflight: serveMaxInflight}
		l.issue = func(j int, due time.Time) (time.Duration, bool) { return n.read(queries[j], due) }
		loads[i] = l
		readers.Add(1)
		go func() {
			defer readers.Done()
			l.run(start, -1, nil)
		}()
	}

	windowStart := start.Add(warm)
	deadline := start.Add(span)
	measuring := false
	for time.Now().Before(deadline) {
		if !measuring && !time.Now().Before(windowStart) {
			measuring = true
			m.rec.Store(rec)
			out.before = readMem()
		}
		p := m.publish()
		if measuring {
			out.publishes++
			if p.err != nil {
				out.pubFailed++
				out.problems = append(out.problems, p.err.Error())
			} else {
				out.record(m, &p)
			}
		} else if p.err != nil {
			out.problems = append(out.problems, "during warm-up: "+p.err.Error())
		}
		// Collect between publishes. A publish allocates 12 MB on a live
		// heap of 90 MB, so left alone the collector would run during one
		// publish in eight and stretch it by half; whether that share lay
		// above or below the tail level changed from run to run. This way
		// every publish starts on a collected heap and none is charged for
		// the garbage of another; allocs_per_op and bytes_per_op still
		// report what a publish allocates.
		runtime.GC()
		time.Sleep(meshPublishGap)
	}
	readers.Wait()
	m.rec.Store(nil)
	out.after = readMem()
	out.elapsed = time.Since(windowStart)
	for i, l := range loads {
		for j := firsts[i]; j < len(l.sched); j++ {
			out.reads++
			if took := l.lat[j]; took < 0 {
				out.readFailed++
			} else {
				out.readLat.Record(took)
			}
		}
		out.late.Merge(&l.late)
		out.inflightMax = max(out.inflightMax, l.inflightMax)
	}
	return out
}

// record files one converged publish: its latency, its stages, and — on a
// traced slice — its spans.
func (out *meshOutcome) record(m *mesh, p *publishOutcome) {
	out.converge.Record(int64(p.converge))
	out.publishCall.Record(int64(p.callEnd.Sub(p.start)))
	lastNode := 0
	for i, ev := range p.events {
		if ev.done.After(p.events[lastNode].done) {
			lastNode = i
		}
		out.install.Record(int64(ev.done.Sub(ev.entry)))
		out.swap.Record(int64(ev.swap))
		if ev.node != p.origin {
			out.deliver.Record(int64(ev.entry.Sub(p.start)))
		}
	}
	// The node that finished last sets the convergence time: its delivery
	// (or, at the origin, the PublishGeneration call) plus its install.
	last := p.events[lastNode]
	out.critFirst.Record(int64(last.entry.Sub(p.start)))
	out.critSecond.Record(int64(last.done.Sub(last.entry)))

	rec := m.rec.Load()
	if rec == nil {
		return
	}
	trace := p.trace
	root := rec.add(trace, 0, spanOp, rec.at(p.start), rec.at(p.start.Add(p.converge)))
	rec.add(trace, root, spanPublishCall, rec.at(p.start), rec.at(p.callEnd))
	for _, ev := range p.events {
		if ev.node != p.origin {
			rec.add(trace, root, spanDeliver, rec.at(p.start), rec.at(ev.entry))
		}
		inst := rec.add(trace, root, spanInstall, rec.at(ev.entry), rec.at(ev.done))
		rec.add(trace, inst, spanNewEnsemble, rec.at(ev.entry), rec.at(ev.entry.Add(ev.build)))
		rec.add(trace, inst, spanSwap, rec.at(ev.entry.Add(ev.build)), rec.at(ev.done))
	}
}

// f1 is the micro-F1 of the reference answers of all sets against the
// ground truth: what the mesh answers, whichever generation is live.
func (m *mesh) f1() float64 {
	sum := 0.0
	for _, ref := range m.refs {
		sum += m.c.f1Micro(ref)
	}
	return sum / float64(len(m.refs))
}

// checkNodes asserts, per node, the serving accounting identity and that
// the pool issued exactly the rows its reader asked for, and that the
// honest mesh saw no retry, reject or quarantine.
func (m *mesh) checkNodes(res *Result) (frames, bytes, retries, rejects, quarantined int64) {
	for _, n := range m.nodes {
		res.checkAccounting(fmt.Sprintf("node %d", n.id), n.stats0, n.srv.Stats(), n.asked.Load())
		tr := n.node.Transport()
		rejects += tr.Rejects
		for _, ps := range tr.Peers {
			frames += ps.FramesOut
			bytes += ps.BytesOut
			retries += ps.Retries
			if ps.Quarantined {
				quarantined++
			}
		}
		for _, ot := range n.node.Trust().Origins {
			rejects += ot.Rejected
			if ot.Quarantined {
				quarantined++
			}
		}
	}
	if retries+rejects+quarantined > 0 {
		res.problem("honest mesh saw %d retries, %d rejects, %d quarantines", retries, rejects, quarantined)
	}
	return frames, bytes, retries, rejects, quarantined
}

// runMesh is the mesh-swap workload.
func runMesh(o runOpts) (*Result, error) {
	res := newResult(o)
	reps := o.reps(meshSetupReps)
	m, setupS, err := repeatSetup(reps,
		func(keep bool) (*mesh, time.Duration, error) { return setupMesh(o, keep) },
		func(m *mesh) { m.close() })
	if err != nil {
		return nil, err
	}
	defer m.close()
	o.logf("%s: set up in %.3fs (median of %d), %d train / %d test docs, %d model sets", o.workload, setupS, reps, len(m.c.train), len(m.c.test), len(m.sets))
	for _, n := range m.nodes {
		n.stats0 = n.srv.Stats()
	}

	tally := func(out *meshOutcome) {
		res.Attempted += out.publishes + out.reads
		if out.pubFailed > 0 {
			res.fail(out.pubFailed, "%d publishes failed: %s", out.pubFailed, out.problems[0])
		} else if len(out.problems) > 0 {
			res.problem("%s", out.problems[0])
		}
		if out.readFailed > 0 {
			var errs, slow, wrong int64
			for _, n := range m.nodes {
				errs, slow, wrong = errs+n.readErrs.Load(), slow+n.readSlow.Load(), wrong+n.readWrong.Load()
			}
			res.fail(out.readFailed, "%d reads failed (so far %d errors or refusals, %d over %v, %d matching no generation installed on their node)",
				out.readFailed, errs, slow, meshReadLimit, wrong)
		}
		res.checkLate(&out.late)
	}

	if !o.trace {
		out := m.drive(o.warmup(), o.window(1), "window", nil)
		tally(out)
		m.checkNodes(res)
		res.set("setup_s", setupS, reps)
		res.setOpMetrics(&out.converge, meshTailQ, out.publishes-out.pubFailed, out.elapsed, out.before, out.after)
		res.set("f1_micro", m.f1(), len(m.refs)*len(m.c.queries))
		return res, nil
	}

	// No untraced baseline slice here, unlike the other workloads: a slice
	// holds too few publishes for two medians to resolve anything (their
	// ratio swung by 30 % either way), and tracing costs this op two clock
	// reads per dial — the spans are added after the publish has converged.
	// The whole window goes to the traced slice; trace.overhead_ratio stays
	// 0.
	var cache0 [meshNodes]doctagger.ServerStats
	for i, n := range m.nodes {
		cache0[i] = n.srv.Stats()
	}
	rec := newRecorder(spanCapacity)
	traced := m.drive(o.warmup(), o.window(0.85), "traced", rec)
	tally(traced)
	var hits, lookups, evictions int64
	for i, n := range m.nodes {
		st := n.srv.Stats()
		hits += st.CacheHits - cache0[i].CacheHits
		lookups += (st.CacheHits - cache0[i].CacheHits) + (st.CacheMisses - cache0[i].CacheMisses)
		evictions += st.CacheEvictions - cache0[i].CacheEvictions
	}
	frames, bytes, retries, rejects, quarantined := m.checkNodes(res)

	spans := rec.recorded()
	for _, s := range spans {
		if s.Name == spanDial && s.Trace != 0 {
			traced.dialsInPublish++
		}
	}
	led := &ledger{root: &traced.converge, stages: []ledgerStage{
		{"last node: deliver or publish_call", &traced.critFirst},
		{"last node: install", &traced.critSecond},
	}}
	led.print(o.logw())

	ms := func(h *Hist, q float64) float64 { v, _ := h.Quantile(q); return v / 1e6 }
	res.set("realnet.train_set_ms", m.trainSet.P50()/1e6, m.trainSet.Count())
	res.set("realnet.publish_call_ms_p50", traced.publishCall.P50()/1e6, traced.publishCall.Count())
	res.set("realnet.dial_us_p50", m.dials.P50()/1e3, m.dials.Count())
	if n := traced.publishes - traced.pubFailed; n > 0 {
		res.set("realnet.dials_per_publish", float64(traced.dialsInPublish)/float64(n), int(n))
	}
	res.set("realnet.deliver_ms_p50", traced.deliver.P50()/1e6, traced.deliver.Count())
	res.set("realnet.deliver_ms_p90", ms(&traced.deliver, 0.9), traced.deliver.Count())
	res.set("realnet.install_ms_p50", traced.install.P50()/1e6, traced.install.Count())
	res.set("realnet.install_ms_p90", ms(&traced.install, 0.9), traced.install.Count())
	res.set("realnet.frames_out", float64(frames), 0)
	res.set("realnet.bytes_out", float64(bytes), 0)
	res.set("realnet.retries", float64(retries), 0)
	res.set("realnet.rejects", float64(rejects), 0)
	res.set("realnet.quarantined", float64(quarantined), 0)
	res.set("serving.swap_ms_p50", traced.swap.P50()/1e6, traced.swap.Count())
	res.set("serving.swap_ms_max", float64(traced.swap.Max())/1e6, traced.swap.Count())
	res.set("serving.read_p50_us", traced.readLat.P50()/1e3, traced.readLat.Count())
	res.setQuantile("serving.read_p99_us", &traced.readLat, 0.99, 1e3)
	res.set("serving.cache_evictions", float64(evictions), 0)
	if lookups > 0 {
		res.set("serving.cache_hit_ratio", float64(hits)/float64(lookups), int(lookups))
	}
	res.set("gen.late_p99_us", traced.late.quantile(0.99)/1e3, traced.late.Count())
	res.set("gen.inflight_max", float64(traced.inflightMax), 0)
	res.setLedger(led, &traced.converge, nil, false)
	res.set("trace.spans", float64(len(spans)), 0)
	if err := probeWire(res, m.sets); err != nil {
		return nil, err
	}
	if err := probeEnsemble(res, m.c, m.sets[0], o.window(0.05)); err != nil {
		return nil, err
	}
	return res, o.saveSpans(rec)
}
