// Package baseline implements the two comparison points of every
// experiment: a centralized tagger (all peers ship their labeled documents
// to one coordinator that trains global models and answers every query —
// the architecture the paper argues against) and a local-only tagger (each
// peer learns from its own documents alone — the floor that collaboration
// must beat).
package baseline

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/vector"
)

// CentralizedConfig tunes the centralized baseline.
type CentralizedConfig struct {
	// Coordinator is the node all data and queries flow to.
	Coordinator simnet.NodeID
	// C is the linear SVM penalty; default 1.
	C float64
	// Seed drives training. (There is no query timeout: a query lost in
	// flight fails via the caller's run horizon, see Predict.)
	Seed int64
	// Parallel is the worker count for the coordinator's global training:
	// the one-vs-all models are independent per tag, so they train
	// concurrently. 1 means serial; other values <= 0 mean GOMAXPROCS.
	// The result is bit-identical at any worker count.
	Parallel int
}

// Centralized is the centralized collaborative tagger.
type Centralized struct {
	cfg   CentralizedConfig
	net   *simnet.Network
	order []simnet.NodeID
	docs  map[simnet.NodeID][]protocol.Doc
	pool  []protocol.Doc // coordinator's accumulated training data
	dirty bool           // pool changed since last training
	// bank is the global one-vs-all bank (rebuilt by score); dec is its
	// reused scoring scratch — safe without a lock because all scoring
	// happens either in the coordinator's handler (serial per node under
	// the sharded simulator) or in Predict while the simulated clock is
	// stopped.
	bank *protocol.Bank
	dec  []float64
	// scored is PredictEntries' reused answer slice: the streaming
	// contract says cb consumes it synchronously, so one buffer serves
	// every coordinator-origin query.
	scored []metrics.ScoredTag
	// pending queries awaiting coordinator answers, bucketed by origin so
	// an answer handled at its origin touches only that origin's bucket
	// (required by the sharded simulator).
	pending map[simnet.NodeID]map[uint64]func([]metrics.ScoredTag, bool)
	nextReq map[simnet.NodeID]uint64
}

type uploadMsg struct{ docs []protocol.Doc }

type centralQuery struct {
	x      *vector.Sparse
	origin simnet.NodeID
	req    uint64
}

type centralAnswer struct {
	req    uint64
	scores []metrics.ScoredTag // in ascending tag order
}

// NewCentralized registers handlers for ids on net.
func NewCentralized(net *simnet.Network, ids []simnet.NodeID, cfg CentralizedConfig) *Centralized {
	if cfg.C == 0 {
		cfg.C = 1
	}
	c := &Centralized{
		cfg:     cfg,
		net:     net,
		docs:    make(map[simnet.NodeID][]protocol.Doc),
		bank:    &protocol.Bank{},
		pending: make(map[simnet.NodeID]map[uint64]func([]metrics.ScoredTag, bool), len(ids)),
		nextReq: make(map[simnet.NodeID]uint64, len(ids)),
	}
	c.order = append(c.order, ids...)
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
	for _, id := range c.order {
		c.pending[id] = make(map[uint64]func([]metrics.ScoredTag, bool))
		nodeID := id
		net.AddNode(id, simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			c.handle(nodeID, m)
		}))
	}
	return c
}

// SetDocs installs a peer's local training documents (before Fit).
func (c *Centralized) SetDocs(id simnet.NodeID, docs []protocol.Doc) { c.docs[id] = docs }

// Name implements protocol.Classifier.
func (c *Centralized) Name() string { return "Centralized" }

// Fit ships every peer's labeled documents to the coordinator (this is the
// data-centralization cost the paper criticizes) and trains the global
// models when the uploads arrive.
func (c *Centralized) Fit() {
	for _, id := range c.order {
		if !c.net.Alive(id) {
			continue
		}
		docs := c.docs[id]
		if len(docs) == 0 {
			continue
		}
		if id == c.cfg.Coordinator {
			c.pool = append(c.pool, docs...)
			c.dirty = true
			continue
		}
		size := 16
		for _, d := range docs {
			size += d.X.WireSize() + 8*len(d.Tags)
		}
		c.net.Send(simnet.Message{
			From: id, To: c.cfg.Coordinator, Kind: "central.upload", Size: size,
			Payload: uploadMsg{docs: docs},
		})
	}
}

func (c *Centralized) handle(self simnet.NodeID, m simnet.Message) {
	switch m.Kind {
	case "central.upload":
		if self != c.cfg.Coordinator {
			return
		}
		c.pool = append(c.pool, m.Payload.(uploadMsg).docs...)
		c.dirty = true
	case "central.query":
		if self != c.cfg.Coordinator {
			return
		}
		q := m.Payload.(centralQuery)
		scores := c.score(q.x.Entries(), nil)
		c.net.Send(simnet.Message{
			From: self, To: q.origin, Kind: "central.answer",
			Size:    16 + 12*len(scores),
			Payload: centralAnswer{req: q.req, scores: scores},
		})
	case "central.answer":
		a := m.Payload.(centralAnswer)
		cb, ok := c.pending[self][a.req]
		if !ok {
			return
		}
		delete(c.pending[self], a.req)
		cb(a.scores, true)
	}
}

// score answers one query at the coordinator — every tag of the global
// bank, in ascending tag order, appended to dst[:0] (nil for a fresh slice
// the answer may keep) — first rebuilding the bank from the accumulated
// pool if uploads arrived since the last query. Real systems would train
// incrementally; deferring one batch retrain to the first query is
// equivalent under the simulator (which charges no CPU time) and avoids
// quadratic retraining during Fit.
func (c *Centralized) score(entries []vector.Entry, dst []metrics.ScoredTag) []metrics.ScoredTag {
	if c.dirty {
		c.dirty = false
		c.bank = protocol.TrainBank(c.pool, c.cfg.C, c.cfg.Seed, c.cfg.Parallel, nil)
	}
	dst, c.dec = c.bank.Score(entries, c.dec, dst)
	return dst
}

// Predict implements protocol.Classifier: the vector travels to the
// coordinator and the scored answer returns. A coordinator (or origin)
// that is already down fails the query at once: cb fires with ok=false
// before Predict returns — the single point of failure the paper
// highlights. A query lost after that — a dropped message, or a
// coordinator that dies with the query in flight — is never answered and
// cb never fires: nothing times it out, so callers must treat a callback
// still unfired once the network has drained as a failed query (p2pdmt's
// evaluation and doctagger.Tagger both do).
func (c *Centralized) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	if !c.net.Alive(from) || !c.net.Alive(c.cfg.Coordinator) {
		cb(nil, false)
		return
	}
	if from == c.cfg.Coordinator {
		cb(c.score(x.Entries(), nil), true)
		return
	}
	req := c.nextReq[from]
	c.nextReq[from]++
	c.pending[from][req] = cb
	c.net.Send(simnet.Message{
		From: from, To: c.cfg.Coordinator, Kind: "central.query",
		Size:    x.WireSize() + 16,
		Payload: centralQuery{x: x, origin: from, req: req},
	})
}

// PredictEntries implements protocol.StreamScorer. Coordinator-origin
// queries score straight off the borrowed entries into reused scratch
// (scores handed to cb are valid only during the call); queries from any
// other peer must outlive this call in a network payload, so the entries
// are copied into a materialized vector and the query delegates to
// Predict.
func (c *Centralized) PredictEntries(from simnet.NodeID, entries []vector.Entry, cb func([]metrics.ScoredTag, bool)) {
	if from != c.cfg.Coordinator || !c.net.Alive(from) {
		x := vector.Borrow(entries)
		c.Predict(from, x.Clone(), cb)
		return
	}
	c.scored = c.score(entries, c.scored)
	cb(c.scored, true)
}

// Refine implements protocol.Refiner by uploading the corrected document.
func (c *Centralized) Refine(peer simnet.NodeID, doc protocol.Doc) {
	c.docs[peer] = append(c.docs[peer], doc)
	if !c.net.Alive(peer) || !c.net.Alive(c.cfg.Coordinator) {
		return
	}
	if peer == c.cfg.Coordinator {
		c.pool = append(c.pool, doc)
		c.dirty = true
		return
	}
	c.net.Send(simnet.Message{
		From: peer, To: c.cfg.Coordinator, Kind: "central.upload",
		Size:    doc.X.WireSize() + 8*len(doc.Tags) + 16,
		Payload: uploadMsg{docs: []protocol.Doc{doc}},
	})
}

// ---------------------------------------------------------------------------

// Local is the no-collaboration floor: every peer trains only on its own
// documents and predicts locally. It sends no messages at all.
type Local struct {
	// Parallel is the worker count for Fit: peers train independently
	// from their own shards and fan out over it. Set it before Fit; 1
	// means serial, other values <= 0 mean GOMAXPROCS. The result is
	// bit-identical at any worker count.
	Parallel int

	net  *simnet.Network
	docs map[simnet.NodeID][]protocol.Doc
	c    float64
	seed int64
	// banks holds each peer's private bank (retrained on Fit/Refine); dec
	// is the reused scoring scratch — Predict runs serially per System,
	// like every protocol here.
	banks map[simnet.NodeID]*protocol.Bank
	dec   []float64
	// scored is PredictEntries' reused answer slice (consumed
	// synchronously by cb per the streaming contract).
	scored []metrics.ScoredTag
}

// NewLocal registers no-op handlers for ids on net (so the same node set
// works across protocols).
func NewLocal(net *simnet.Network, ids []simnet.NodeID, c float64, seed int64) *Local {
	if c == 0 {
		c = 1
	}
	l := &Local{
		net:   net,
		docs:  make(map[simnet.NodeID][]protocol.Doc),
		c:     c,
		seed:  seed,
		banks: make(map[simnet.NodeID]*protocol.Bank),
	}
	for _, id := range ids {
		net.AddNode(id, simnet.HandlerFunc(func(*simnet.Network, simnet.Message) {}))
	}
	return l
}

// SetDocs installs a peer's local training documents (before Fit).
func (l *Local) SetDocs(id simnet.NodeID, docs []protocol.Doc) { l.docs[id] = docs }

// Name implements protocol.Classifier.
func (l *Local) Name() string { return "Local-only" }

// Fit trains every peer's private bank concurrently (each peer reads only
// its own shard and the trained banks install serially afterwards, so any
// worker count yields the same models). No traffic.
func (l *Local) Fit() {
	ids := make([]simnet.NodeID, 0, len(l.docs))
	for id := range l.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	trained, _ := runner.Map(len(ids), l.Parallel, func(i int) (*protocol.Bank, error) {
		return l.trainPeer(ids[i]), nil
	})
	for i, id := range ids {
		l.banks[id] = trained[i]
	}
}

func (l *Local) trainPeer(id simnet.NodeID) *protocol.Bank {
	return protocol.TrainBank(l.docs[id], l.c, l.seed+int64(id), 1, nil)
}

// score answers one query from its own peer's bank into dst[:0] (nil for a
// fresh slice); ok is false for a dead peer or one that has no models.
func (l *Local) score(from simnet.NodeID, entries []vector.Entry, dst []metrics.ScoredTag) ([]metrics.ScoredTag, bool) {
	b := l.banks[from]
	if !l.net.Alive(from) || b == nil || len(b.Models) == 0 {
		return dst[:0], false
	}
	dst, l.dec = b.Score(entries, l.dec, dst)
	return dst, true
}

// Predict implements protocol.Classifier, synchronously and locally.
func (l *Local) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	cb(l.score(from, x.Entries(), nil))
}

// PredictEntries implements protocol.StreamScorer: Predict's exact
// scores, computed straight off the borrowed entries into reused scratch.
// The scores handed to cb are valid only during the call.
func (l *Local) PredictEntries(from simnet.NodeID, entries []vector.Entry, cb func([]metrics.ScoredTag, bool)) {
	var ok bool
	l.scored, ok = l.score(from, entries, l.scored)
	cb(l.scored, ok)
}

// Refine implements protocol.Refiner locally.
func (l *Local) Refine(peer simnet.NodeID, doc protocol.Doc) {
	l.docs[peer] = append(l.docs[peer], doc)
	l.banks[peer] = l.trainPeer(peer)
}
