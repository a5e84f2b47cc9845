// Package pace implements PACE (adaPtive Classifier Ensemble, Ang et al.,
// DASFAA 2010) as used by P2PDocTagger: every peer trains a linear SVM per
// tag plus k-means centroids of its training data, propagates models and
// centroids to all other peers once, and each peer indexes the received
// models by centroid with locality-sensitive hashing. A document is tagged
// locally by retrieving the top-k nearest models and taking an
// accuracy- and distance-weighted vote — no network traffic at prediction
// time, which is what makes PACE robust to churn.
package pace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/svm"
	"repro/internal/vector"
)

// Config tunes the protocol.
type Config struct {
	// TopK is the number of nearest models consulted per prediction;
	// default 5.
	TopK int
	// DisableLSH switches model retrieval from the paper's LSH index to
	// an exact scan over all centroids — the ablation for experiment E8.
	DisableLSH bool
	// NoiseScale adds Laplace noise (relative to mean weight magnitude)
	// to every model before it leaves the peer — the privacy-preserving
	// plug-in slot of §2 ("if we deploy a privacy preserving P2P
	// classification algorithm, P2PDocTagger will then inherit the
	// privacy preserving property"). 0 disables.
	NoiseScale float64
	// Seed drives training, clustering and hashing.
	Seed int64
	// Parallel is the worker count for Fit's local-training phase: each
	// peer trains and clusters its own shard, so peers fan out over real
	// cores while the model broadcast stays on the virtual clock. 1 means
	// serial; other values <= 0 mean GOMAXPROCS. The result is
	// bit-identical at any worker count.
	Parallel int
}

func (c *Config) defaults() {
	if c.TopK <= 0 {
		c.TopK = 5
	}
}

const (
	// clusters is the number of k-means centroids each peer publishes.
	clusters = 3
	// lshPlanes and lshTables parameterize the index.
	lshPlanes, lshTables = 10, 6
	// svmC is the linear SVM penalty.
	svmC = 1.0
	// pruneRel zeroes model weights below this fraction of the largest
	// weight before broadcast, compressing the wire payload.
	pruneRel = 0.02
)

// modelSet is what one peer publishes: its calibrated per-tag bank (pruned
// and noised before it leaves the peer) and its data centroids. The bank
// is read-only after training, so every receiver shares it; its derived
// score matrix contributes nothing to the wire size.
type modelSet struct {
	from      simnet.NodeID
	bank      *protocol.Bank
	centroids []*vector.Sparse
}

func (ms *modelSet) wireSize() int {
	n := 16
	for tag, m := range ms.bank.Models {
		n += m.WireSize() + len(tag) + 8
	}
	for _, c := range ms.centroids {
		n += c.WireSize()
	}
	return n
}

// peerState is one peer's local protocol state.
type peerState struct {
	id     simnet.NodeID
	docs   []protocol.Doc
	own    *modelSet
	remote map[simnet.NodeID]*modelSet
}

type centroidRef struct {
	peer     simnet.NodeID
	centroid *vector.Sparse
}

// System is a PACE deployment. It registers its own handlers directly on
// the network (PACE needs no DHT).
//
// Semantically every peer maintains its own LSH index of the centroids it
// has received; because all peers hash with the same seed those indexes
// hold identical entries for identical inputs, so the simulation stores the
// centroid index once and keeps only the per-peer knowledge set (`remote`)
// separate. Queries filter index hits through the querying peer's knowledge
// set, preserving per-peer semantics under churn (a peer that missed a
// broadcast cannot use those models).
type System struct {
	cfg   Config
	net   *simnet.Network
	peers map[simnet.NodeID]*peerState
	order []simnet.NodeID

	index       *lsh.Index
	centroidRef []centroidRef
	indexed     map[simnet.NodeID]*indexedSet // per-sender index bookkeeping
	vote        protocol.Pool                 // reused ensemble vote (Predict is serial per System)
}

// indexedSet records which model-set version of a sender is in the shared
// index and under which LSH ids, so a refined re-broadcast replaces it.
type indexedSet struct {
	ms  *modelSet
	ids []int
}

// New builds the protocol over the given network nodes and registers their
// message handlers.
func New(net *simnet.Network, ids []simnet.NodeID, cfg Config) *System {
	cfg.defaults()
	s := &System{
		cfg:   cfg,
		net:   net,
		peers: make(map[simnet.NodeID]*peerState, len(ids)),
		index: lsh.New(lsh.Options{
			Planes: lshPlanes, Tables: lshTables, Seed: cfg.Seed,
		}),
		indexed: make(map[simnet.NodeID]*indexedSet),
	}
	s.order = append(s.order, ids...)
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	for _, id := range s.order {
		p := &peerState{
			id:     id,
			remote: make(map[simnet.NodeID]*modelSet),
		}
		s.peers[id] = p
		nodeID := id
		net.AddNode(id, simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			s.handle(nodeID, m)
		}))
	}
	return s
}

// SetDocs installs a peer's local training documents (before Fit).
func (s *System) SetDocs(id simnet.NodeID, docs []protocol.Doc) {
	s.peers[id].docs = docs
}

// Name implements protocol.Classifier.
func (s *System) Name() string { return "PACE" }

// Fit trains local models and centroids at every alive peer and broadcasts
// them to all other alive peers. Run the network to complete delivery.
//
// Per-peer training is pure CPU work on the peer's own shard (no network,
// no virtual clock), so peers train concurrently over cfg.Parallel
// workers; the broadcast then runs serially in peer order, producing
// exactly the message schedule of a serial Fit.
func (s *System) Fit() {
	var alive []simnet.NodeID
	for _, id := range s.order {
		if s.net.Alive(id) {
			alive = append(alive, id)
		}
	}
	_ = runner.ForEach(len(alive), s.cfg.Parallel, func(i int) error {
		s.trainLocal(alive[i])
		return nil
	})
	for _, id := range s.order {
		if s.net.Alive(id) {
			s.publish(id)
		}
	}
}

// publish indexes a peer's freshly trained set locally and broadcasts it
// to every other peer; a peer with nothing trained publishes nothing.
func (s *System) publish(id simnet.NodeID) {
	own := s.peers[id].own
	if own == nil {
		return
	}
	s.ingest(id, own)
	size := own.wireSize()
	for _, dst := range s.order {
		if dst != id {
			s.net.Send(simnet.Message{
				From: id, To: dst, Kind: "pace.models", Size: size, Payload: own,
			})
		}
	}
}

// trainLocal fits a calibrated linear SVM per locally observed tag —
// pruned and noised as configured, its cross-validated accuracy being the
// weight PACE ships with the model — and clusters the local documents.
func (s *System) trainLocal(id simnet.NodeID) {
	p := s.peers[id]
	if len(p.docs) == 0 {
		return
	}
	ms := &modelSet{from: id}
	ms.bank = protocol.TrainBank(p.docs, svmC, s.cfg.Seed+int64(id), 1, func(m *svm.LinearModel) *svm.LinearModel {
		m = m.Pruned(pruneRel)
		if s.cfg.NoiseScale > 0 {
			noiseRng := rand.New(rand.NewSource(s.cfg.Seed + 31*int64(id)))
			m = m.Noised(s.cfg.NoiseScale, noiseRng)
		}
		return m
	})
	xs := make([]*vector.Sparse, len(p.docs))
	for i, d := range p.docs {
		xs[i] = d.X
	}
	res, err := cluster.KMeans(xs, cluster.Options{K: clusters, Seed: s.cfg.Seed + int64(id)})
	if err == nil {
		ms.centroids = res.Centroids
	}
	p.own = ms
}

func (s *System) handle(self simnet.NodeID, m simnet.Message) {
	if m.Kind != "pace.models" {
		return
	}
	s.ingest(self, m.Payload.(*modelSet))
}

// ingest stores a model set in the receiving peer's knowledge set and
// indexes its centroids ("peers index the models using the centroids
// (based on locality sensitive hashing)"). Centroids are hashed once
// globally; see the System doc comment.
//
// Handler invariant: the shared index only changes when a model-set
// version is first seen, which happens at serial points (Fit and Refine
// index the sender's own set before broadcasting it). A delivery-time
// ingest always finds the version already indexed and touches only the
// receiving peer's knowledge set, so a delivery handler never writes
// shared state.
func (s *System) ingest(self simnet.NodeID, ms *modelSet) {
	p := s.peers[self]
	p.remote[ms.from] = ms
	if prev := s.indexed[ms.from]; prev != nil {
		if prev.ms == ms {
			return // this version already indexed
		}
		for _, id := range prev.ids {
			s.index.Remove(id)
			s.centroidRef[id] = centroidRef{} // tombstone
		}
	}
	rec := &indexedSet{ms: ms}
	for _, c := range ms.centroids {
		id := len(s.centroidRef)
		s.centroidRef = append(s.centroidRef, centroidRef{peer: ms.from, centroid: c})
		s.index.Add(id, c.Normalize())
		rec.ids = append(rec.ids, id)
	}
	s.indexed[ms.from] = rec
}

// Predict implements protocol.Classifier. PACE predicts entirely locally:
// retrieve the top-k nearest models by centroid, then take an accuracy- and
// distance-weighted vote per tag. cb is invoked synchronously.
func (s *System) Predict(from simnet.NodeID, x *vector.Sparse, cb func([]metrics.ScoredTag, bool)) {
	p, ok := s.peers[from]
	if !ok || !s.net.Alive(from) {
		cb(nil, false)
		return
	}
	type sel struct {
		ms   *modelSet
		dist float64
	}
	chosen := make(map[simnet.NodeID]sel)
	consider := func(peer simnet.NodeID, dist float64) {
		ms, ok := p.remote[peer]
		if !ok {
			return
		}
		if cur, ok := chosen[peer]; !ok || dist < cur.dist {
			chosen[peer] = sel{ms: ms, dist: dist}
		}
	}
	// The querying peer's own models always participate: its local data is
	// the test distribution PACE adapts to (tag queries come from the
	// peer's own collection).
	if p.own != nil {
		best := math.Inf(1)
		for _, c := range p.own.centroids {
			if d := x.EuclideanDistance(c); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			consider(from, best)
		}
	}
	if !s.cfg.DisableLSH {
		// Retrieve more than TopK candidates since several centroids can
		// belong to one peer, and hits from senders this peer never heard
		// from are filtered out by consider().
		for _, nb := range s.index.Query(x.Normalize(), 2*s.cfg.TopK*clusters) {
			ref := s.centroidRef[nb.ID]
			if ref.centroid == nil {
				continue // tombstone from a replaced model set
			}
			consider(ref.peer, x.EuclideanDistance(ref.centroid))
			if len(chosen) >= s.cfg.TopK {
				break
			}
		}
	} else {
		// Exact scan over every centroid (ablation).
		type cand struct {
			peer simnet.NodeID
			dist float64
		}
		var cands []cand
		for _, ref := range s.centroidRef {
			if ref.centroid == nil {
				continue
			}
			cands = append(cands, cand{ref.peer, x.EuclideanDistance(ref.centroid)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].peer < cands[j].peer
		})
		for _, c := range cands {
			consider(c.peer, c.dist)
			if len(chosen) >= s.cfg.TopK {
				break
			}
		}
	}
	if len(chosen) == 0 {
		cb(nil, false)
		return
	}
	// Vote in peer-id order so floating-point accumulation is
	// deterministic across runs.
	order := make([]simnet.NodeID, 0, len(chosen))
	for id := range chosen {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		// Weight models "according to their accuracy and distance from
		// the test data".
		sl := chosen[id]
		s.vote.Add(sl.ms.bank, x.Entries(), 1/(1+sl.dist))
	}
	cb(s.vote.Scores(), true)
}

// PredictEntries implements protocol.StreamScorer by wrapping the
// borrowed entries as a stack-local vector view: Predict reads the query
// synchronously (distances, LSH lookup, fused scoring) and retains
// nothing, so the borrow never outlives the call.
func (s *System) PredictEntries(from simnet.NodeID, entries []vector.Entry, cb func([]metrics.ScoredTag, bool)) {
	x := vector.Borrow(entries)
	s.Predict(from, &x, cb)
}

// Refine implements protocol.Refiner: retrain the local models with the
// corrected document and re-broadcast.
func (s *System) Refine(peer simnet.NodeID, doc protocol.Doc) {
	p := s.peers[peer]
	p.docs = append(p.docs, doc)
	if !s.net.Alive(peer) {
		return
	}
	s.trainLocal(peer)
	s.publish(peer)
}

// String describes the configuration.
func (s *System) String() string {
	retrieval := "lsh"
	if s.cfg.DisableLSH {
		retrieval = "scan"
	}
	return fmt.Sprintf("PACE(k=%d clusters=%d retrieval=%s)", s.cfg.TopK, clusters, retrieval)
}
