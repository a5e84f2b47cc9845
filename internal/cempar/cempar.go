// Package cempar implements CEMPaR (Communication-Efficient Multi-Party
// classification in P2P networks, Ang et al., ECML/PKDD 2009) as used by
// P2PDocTagger: every peer trains a non-linear SVM per tag on its local
// documents, propagates the support vectors once to a deterministically
// elected super-peer, and the super-peers cascade the collected models into
// regional models. Untagged documents are classified by routing their
// vectors to super-peers, whose regional models vote.
package cempar

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/svm"
	"repro/internal/vector"
)

// Config tunes the protocol.
type Config struct {
	// Regions is the number of super-peer regions; default 4.
	Regions int
	// Kernel is the base-learner kernel; default RBF with gamma 1 (the
	// cascade-SVM paradigm requires a non-linear learner).
	Kernel svm.Kernel
	// C is the SVM penalty; default 1.
	C float64
	// CascadeFanIn controls how many models merge per cascade layer.
	CascadeFanIn int
	// Weighted enables weighting each regional model's vote by the number
	// of training examples behind it (the paper's "(weighted) majority
	// voting"); unweighted voting is the ablation.
	Weighted bool
	// OwnRegionOnly restricts queries to the querying peer's regional
	// super-peer (cheaper, less accurate). The default queries every
	// region's super-peer and aggregates with the paper's "(weighted)
	// majority voting".
	OwnRegionOnly bool
	// SettleDelay is how long a super-peer waits after model arrivals
	// before (re)cascading; default 2s of simulated time.
	SettleDelay time.Duration
	// QueryTimeout bounds how long a querying peer waits for super-peer
	// answers before concluding with whatever arrived; default 10s.
	QueryTimeout time.Duration
	// Seed drives SVM training.
	Seed int64
	// Parallel is the worker count for the local-training phase of Fit:
	// each peer trains from its own shard, so peers fan out over real
	// cores while the protocol's message exchange stays on the virtual
	// clock. 1 means serial; other values <= 0 mean GOMAXPROCS. The
	// result is bit-identical at any worker count.
	Parallel int
}

func (c *Config) defaults() {
	if c.Regions <= 0 {
		c.Regions = 4
	}
	if c.Kernel == (svm.Kernel{}) {
		c.Kernel = svm.Kernel{Kind: svm.KernelRBF, Gamma: 1}
	}
	if c.C == 0 {
		c.C = 1
	}
	if c.SettleDelay == 0 {
		c.SettleDelay = 2 * time.Second
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 10 * time.Second
	}
}

// peerState holds one peer's protocol state, including its super-peer role
// (any peer may become one).
type peerState struct {
	id   simnet.NodeID
	docs []protocol.Doc
	// Local per-tag models (trained during Fit).
	local map[string]*svm.KernelModel
	// sendSamples marks peers whose local data was one-class for some tag;
	// they ship labeled documents alongside (or instead of) models.
	sendSamples bool
	// outMsg caches the last propagated model message so re-propagation
	// after churn ships an identical (pointer-comparable) payload, letting
	// super-peers skip redundant cascades.
	outMsg *modelsMsg
	// lastSuperPeer remembers where models were last shipped; Refresh only
	// re-sends when the elected super-peer changed.
	lastSuperPeer simnet.NodeID
	// Super-peer role: latest model set received from each peer.
	collected map[simnet.NodeID]*modelsMsg
	// Regional cascaded models per tag, and the same models packed for
	// serving: bank scores every tag in one pass over a query, and platt
	// (calibration fitted on the pooled support examples), weight (pooled
	// example counts) and vote (what an answer carries: weight under
	// cfg.Weighted, else all ones) are indexed like bank.Tags(). cascade
	// replaces all of them together and never patches one in place, so an
	// answer in flight keeps the slices it was built from.
	regional map[string]*svm.KernelModel
	bank     *svm.KernelBank
	platt    []svm.PlattParams
	weight   []float64
	vote     []float64
	// kernelRow is the bank's scoring scratch. A handler only ever runs as
	// its own node, so it needs neither pooling nor a lock.
	kernelRow      []float64
	cascadePending bool
	// Querying role: outstanding Predict aggregations. Kept per peer (not
	// on the System) so answers and timeouts — which always execute at the
	// origin — touch only the origin's state under the sharded simulator.
	pending map[uint64]*pendingQuery
	nextReq uint64
}

type modelsMsg struct {
	from   simnet.NodeID
	models map[string]*svm.KernelModel
	counts map[string]int // training examples per tag at the sender
	// samples carries the peer's labeled documents when some local tag
	// was one-class (untrainable locally): the super-peer pools them into
	// the cascade as raw support examples. They are charged like support
	// vectors — which, for such small peers, they effectively are.
	samples  []protocol.Doc
	wireSize int
}

type queryMsg struct {
	x      *vector.Sparse
	origin simnet.NodeID
	req    uint64
}

// answerMsg is one super-peer's vote. tags and weight are the answering
// bank's shared, read-only slices; scores is the message's own.
type answerMsg struct {
	req    uint64
	tags   []string
	scores []float64
	weight []float64
}

type pendingQuery struct {
	expected  int
	received  int
	scoreSum  map[string]float64
	weightSum map[string]float64
	cb        func([]metrics.ScoredTag, bool)
	done      bool
}

// System is a CEMPaR deployment over a DHT ring.
type System struct {
	cfg   Config
	d     *dht.DHT
	net   *simnet.Network
	peers map[simnet.NodeID]*peerState
}

// New builds the protocol over an existing DHT whose application messages
// it will consume. docs maps each peer to its local labeled documents.
// Construct the DHT with this system's Handler: see Attach.
func New(d *dht.DHT, cfg Config) *System {
	cfg.defaults()
	s := &System{
		cfg:   cfg,
		d:     d,
		net:   d.Network(),
		peers: make(map[simnet.NodeID]*peerState),
	}
	for _, id := range d.Peers() {
		s.peers[id] = &peerState{
			id:            id,
			lastSuperPeer: -1,
			collected:     make(map[simnet.NodeID]*modelsMsg),
			bank:          mustBank(nil),
			pending:       make(map[uint64]*pendingQuery),
		}
	}
	return s
}

// Handler returns the application-message handler for peer id; pass it to
// dht.New's app callback.
func (s *System) Handler(id simnet.NodeID) simnet.Handler {
	return simnet.HandlerFunc(func(net *simnet.Network, m simnet.Message) {
		s.handle(id, m)
	})
}

// SetDocs installs a peer's local training documents (before Fit).
func (s *System) SetDocs(id simnet.NodeID, docs []protocol.Doc) {
	s.peers[id].docs = docs
}

// Name implements protocol.Classifier.
func (s *System) Name() string { return "CEMPaR" }

// Fit trains local models at every alive peer and propagates them to the
// peers' regional super-peers via DHT lookups. Run the network to complete.
//
// Training is pure per-peer CPU work that touches neither the network nor
// the virtual clock, so the peers train concurrently (cfg.Parallel
// workers); propagation then runs serially in peer order, producing
// exactly the message schedule of a serial Fit.
func (s *System) Fit() {
	var alive []simnet.NodeID
	for _, id := range s.d.Peers() {
		if s.net.Alive(id) {
			alive = append(alive, id)
		}
	}
	_ = runner.ForEach(len(alive), s.cfg.Parallel, func(i int) error {
		s.trainLocal(alive[i])
		return nil
	})
	for _, id := range alive {
		s.propagate(id)
	}
}

// Refresh re-propagates local models (e.g. after churn re-elected
// super-peers) without retraining.
func (s *System) Refresh() {
	for _, id := range s.d.Peers() {
		if !s.net.Alive(id) || s.peers[id].local == nil {
			continue
		}
		s.propagate(id)
	}
}

// trainLocal fits one kernel SVM per locally observed tag. Tags that are
// one-class locally (every document carries them, or the peer holds a
// single tag) cannot be trained here; the peer marks itself a sample
// contributor instead so its labeled documents still enter the cascade.
func (s *System) trainLocal(id simnet.NodeID) {
	p := s.peers[id]
	p.local = make(map[string]*svm.KernelModel)
	p.sendSamples = false
	p.outMsg = nil
	p.lastSuperPeer = -1
	for _, tag := range protocol.TagUniverse(p.docs) {
		exs := protocol.BinaryExamples(p.docs, tag)
		m, err := svm.TrainKernel(exs, svm.KernelOptions{
			Kernel: s.cfg.Kernel, C: s.cfg.C, Seed: s.cfg.Seed + int64(id),
		})
		if err != nil {
			p.sendSamples = true // untrainable locally: contribute raw examples
			continue
		}
		p.local[tag] = m
	}
}

// propagate looks up the peer's regional super-peer and ships the local
// models there ("these SVM models (support vectors) are propagated once to
// one of the super-peers").
func (s *System) propagate(id simnet.NodeID) {
	p := s.peers[id]
	if len(p.local) == 0 && !p.sendSamples {
		return
	}
	region := dht.Region(s.d.NodeHash(id), s.cfg.Regions)
	key := dht.SuperPeerKey(region, s.cfg.Regions)
	if p.outMsg == nil {
		msg := &modelsMsg{from: id, models: p.local, counts: make(map[string]int)}
		// Wire size: each distinct support vector crosses the network once
		// (per-tag models share the same local documents, so the sender
		// ships the SV union plus per-tag coefficient lists).
		distinct := make(map[*vector.Sparse]bool)
		size := 16
		for tag, m := range p.local {
			msg.counts[tag] = len(p.docs)
			size += len(tag) + 16 // tag header + bias/kernel params
			for _, sv := range m.SVs {
				size += 8 // coefficient
				if !distinct[sv.X] {
					distinct[sv.X] = true
					size += sv.X.WireSize()
				}
			}
		}
		if p.sendSamples {
			msg.samples = p.docs
			for _, d := range p.docs {
				if !distinct[d.X] {
					distinct[d.X] = true
					size += d.X.WireSize()
				}
				for _, tag := range d.Tags {
					size += len(tag) + 1
				}
			}
		}
		msg.wireSize = size
		p.outMsg = msg
	}
	msg := p.outMsg
	_ = s.d.Lookup(id, key, func(r dht.LookupResult) {
		if r.Failed || !s.net.Alive(id) {
			return
		}
		if r.Owner == p.lastSuperPeer {
			return // models already live at this super-peer
		}
		p.lastSuperPeer = r.Owner
		s.net.Send(simnet.Message{
			From: id, To: r.Owner, Kind: "cempar.models", Size: msg.wireSize, Payload: msg,
		})
	})
}

func (s *System) handle(self simnet.NodeID, m simnet.Message) {
	switch m.Kind {
	case "cempar.models":
		s.onModels(self, m.Payload.(*modelsMsg))
	case "cempar.query":
		s.onQuery(self, m.Payload.(queryMsg))
	case "cempar.answer":
		s.onAnswer(self, m.Payload.(answerMsg))
	}
}

// onModels stores a peer's models at the super-peer and schedules a
// (re)cascade after the settle delay.
func (s *System) onModels(self simnet.NodeID, msg *modelsMsg) {
	p := s.peers[self]
	if p.collected[msg.from] == msg {
		return // identical re-propagation (e.g. periodic refresh): no-op
	}
	p.collected[msg.from] = msg
	if p.cascadePending {
		return
	}
	p.cascadePending = true
	s.net.Schedule(self, s.cfg.SettleDelay, func() {
		p.cascadePending = false
		s.cascade(self)
	})
}

// cascade merges all collected models per tag into regional models
// ("super-peers which collect the local models of peers cascade them to
// construct regional cascaded models").
func (s *System) cascade(self simnet.NodeID) {
	p := s.peers[self]
	byTag := make(map[string][]*svm.KernelModel)
	weight := make(map[string]float64)
	var samples []protocol.Doc
	// Iterate senders in id order: map order would vary run to run and
	// change floating-point summation and cascade grouping, breaking
	// reproducibility.
	senders := make([]simnet.NodeID, 0, len(p.collected))
	for id := range p.collected {
		senders = append(senders, id)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	for _, id := range senders {
		msg := p.collected[id]
		tags := make([]string, 0, len(msg.models))
		for tag := range msg.models {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			byTag[tag] = append(byTag[tag], msg.models[tag])
			weight[tag] += float64(msg.counts[tag])
		}
		samples = append(samples, msg.samples...)
	}
	// Raw samples from one-class peers extend every tag's pool: they are
	// positives for their own tags and negatives elsewhere.
	for _, tag := range protocol.TagUniverse(samples) {
		if _, ok := byTag[tag]; !ok {
			byTag[tag] = nil
		}
	}
	// Cascade and calibrate each tag's models concurrently: tags are
	// independent one-vs-all problems, samples and byTag are read-only
	// here, and every job is seeded from the config alone, so the merged
	// models are identical at any worker count. The results install
	// serially in sorted-tag order.
	tags := make([]string, 0, len(byTag))
	for tag := range byTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	type regionalModel struct {
		model  *svm.KernelModel
		platt  svm.PlattParams
		weight float64
	}
	merged, _ := runner.Map(len(tags), s.cfg.Parallel, func(i int) (regionalModel, error) {
		tag := tags[i]
		models := byTag[tag]
		w := weight[tag]
		// Samples from one-class peers join the cascade as one degenerate
		// "model" whose support vectors are exactly the labeled examples.
		if len(samples) > 0 {
			if sm := sampleModel(samples, tag, s.cfg.Kernel, s.cfg.C); sm != nil {
				models = append(models, sm)
				w += float64(len(samples))
			}
		}
		if len(models) == 0 {
			return regionalModel{}, nil
		}
		m, err := svm.Cascade(models, svm.CascadeOptions{
			KernelOptions: svm.KernelOptions{
				Kernel: s.cfg.Kernel, C: s.cfg.C, Seed: s.cfg.Seed + 7777,
			},
			FanIn: s.cfg.CascadeFanIn,
		})
		if err != nil {
			return regionalModel{}, nil
		}
		// Calibrate on the pooled support examples so votes from different
		// regions are on a common probability scale.
		var pool []svm.Example
		for _, mm := range models {
			pool = append(pool, mm.SupportExamples()...)
		}
		platt := svm.CalibrateKernelCV(pool, svm.KernelOptions{
			Kernel: s.cfg.Kernel, C: s.cfg.C, Seed: s.cfg.Seed + 8888,
		}, m, 3)
		return regionalModel{model: m, platt: platt, weight: w}, nil
	})
	// This is the one place regional models are installed, so every
	// retrain, Refine and re-cascade rebuilds the bank. tags is sorted, so
	// appending in its order lines the slices up with bank.Tags().
	p.regional = make(map[string]*svm.KernelModel, len(tags))
	p.platt, p.weight = nil, nil
	for i, tag := range tags {
		if merged[i].model == nil {
			continue
		}
		p.regional[tag] = merged[i].model
		p.platt = append(p.platt, merged[i].platt)
		p.weight = append(p.weight, merged[i].weight)
	}
	p.vote = p.weight
	if !s.cfg.Weighted {
		p.vote = make([]float64, len(p.weight))
		for i := range p.vote {
			p.vote[i] = 1
		}
	}
	p.bank = mustBank(p.regional)
	p.kernelRow = make([]float64, p.bank.NumSVs())
}

// mustBank packs regional models for serving. Every model a cascade sees
// was trained with cfg.Kernel, so packing can only fail on a cfg.Kernel of
// unknown kind — a configuration bug.
func mustBank(models map[string]*svm.KernelModel) *svm.KernelBank {
	b, err := svm.NewKernelBank(models)
	if err != nil {
		panic("cempar: " + err.Error())
	}
	return b
}

// sampleModel wraps raw labeled documents as a degenerate kernel model so
// the cascade can pool them: every document becomes a support vector with
// coefficient ±C according to whether it carries the tag. Returns nil when
// no document mentions anything (empty input).
func sampleModel(samples []protocol.Doc, tag string, k svm.Kernel, c float64) *svm.KernelModel {
	if len(samples) == 0 {
		return nil
	}
	m := &svm.KernelModel{Kernel: k}
	for _, ex := range protocol.BinaryExamples(samples, tag) {
		m.SVs = append(m.SVs, svm.SupportVector{X: ex.X, Coeff: ex.Y * c})
	}
	m.Precompute()
	return m
}

// Predict implements protocol.Classifier: the untagged vector travels to
// super-peers, whose regional models score every known tag; the origin
// aggregates with (weighted) majority voting.
func (s *System) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	if !s.net.Alive(from) {
		cb(nil, false)
		return
	}
	var regions []int
	if s.cfg.OwnRegionOnly {
		regions = []int{dht.Region(s.d.NodeHash(from), s.cfg.Regions)}
	} else {
		for r := 0; r < s.cfg.Regions; r++ {
			regions = append(regions, r)
		}
	}
	origin := s.peers[from]
	req := origin.nextReq
	origin.nextReq++
	pq := &pendingQuery{
		expected:  len(regions),
		scoreSum:  make(map[string]float64),
		weightSum: make(map[string]float64),
		cb:        cb,
	}
	origin.pending[req] = pq
	for _, r := range regions {
		key := dht.SuperPeerKey(r, s.cfg.Regions)
		_ = s.d.Lookup(from, key, func(lr dht.LookupResult) {
			if lr.Failed || !s.net.Alive(from) {
				return
			}
			s.net.Send(simnet.Message{
				From: from, To: lr.Owner, Kind: "cempar.query",
				Size:    x.WireSize() + 16,
				Payload: queryMsg{x: x, origin: from, req: req},
			})
		})
	}
	// Conclude after the timeout with whatever answers arrived.
	s.net.Schedule(from, s.cfg.QueryTimeout, func() { s.finalize(from, req) })
}

// PredictEntries implements protocol.StreamScorer: the query travels in
// network payloads that outlive the borrowed entries, so they are copied
// into a materialized vector and the query delegates to Predict.
func (s *System) PredictEntries(from simnet.NodeID, entries []vector.Entry, cb func([]metrics.ScoredTag, bool)) {
	x := vector.Borrow(entries)
	s.Predict(from, x.Clone(), cb)
}

// onQuery evaluates the regional bank at a super-peer and replies.
func (s *System) onQuery(self simnet.NodeID, q queryMsg) {
	p := s.peers[self]
	// The scores travel with the answer, so they are allocated per query;
	// only the kernel row is scratch.
	scores := p.bank.DecisionsInto(q.x, make([]float64, p.bank.NumTags()), p.kernelRow)
	for i, d := range scores {
		scores[i] = p.platt[i].Prob(d)
	}
	s.net.Send(simnet.Message{
		From: self, To: q.origin, Kind: "cempar.answer", Size: 16 + 20*len(scores),
		Payload: answerMsg{req: q.req, tags: p.bank.Tags(), scores: scores, weight: p.vote},
	})
}

// onAnswer accumulates one super-peer's vote at the origin.
func (s *System) onAnswer(self simnet.NodeID, a answerMsg) {
	pq, ok := s.peers[self].pending[a.req]
	if !ok || pq.done {
		return
	}
	for i, tag := range a.tags {
		w := a.weight[i]
		pq.scoreSum[tag] += w * a.scores[i]
		pq.weightSum[tag] += w
	}
	pq.received++
	if pq.received >= pq.expected {
		s.finalize(self, a.req)
	}
}

func (s *System) finalize(origin simnet.NodeID, req uint64) {
	p := s.peers[origin]
	pq, ok := p.pending[req]
	if !ok || pq.done {
		return
	}
	pq.done = true
	delete(p.pending, req)
	if pq.received == 0 {
		pq.cb(nil, false)
		return
	}
	out := make([]metrics.ScoredTag, 0, len(pq.scoreSum))
	for tag, sum := range pq.scoreSum {
		out = append(out, metrics.ScoredTag{Tag: tag, Score: sum / pq.weightSum[tag]})
	}
	// Canonical tag order: every downstream consumer re-sorts with a
	// full tie-break, but the callback contract itself should not leak
	// map iteration order (dmtvet/maprange).
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	pq.cb(out, true)
}

// Refine implements protocol.Refiner: the corrected document joins the
// peer's training set, the affected tag models retrain and re-propagate.
func (s *System) Refine(peer simnet.NodeID, doc protocol.Doc) {
	p := s.peers[peer]
	p.docs = append(p.docs, doc)
	if !s.net.Alive(peer) {
		return
	}
	s.trainLocal(peer)
	s.propagate(peer)
}

// String describes the configuration.
func (s *System) String() string {
	return fmt.Sprintf("CEMPaR(regions=%d kernel=%s weighted=%v)", s.cfg.Regions, s.cfg.Kernel.Kind, s.cfg.Weighted)
}
