// Package p2pdmt is the P2P Data Mining Toolkit of the paper (Fig. 2): it
// wires a corpus, a data distribution, a physical network with optional
// churn, an overlay, and a pluggable P2P classification protocol into one
// reproducible experiment, collecting accuracy and communication-cost
// measurements and rendering result tables.
package p2pdmt

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/cempar"
	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// ProtocolKind selects the classification protocol under test.
type ProtocolKind string

// The supported protocols.
const (
	ProtoCEMPaR      ProtocolKind = "cempar"
	ProtoPACE        ProtocolKind = "pace"
	ProtoCentralized ProtocolKind = "centralized"
	ProtoLocal       ProtocolKind = "local"
)

// Config describes one simulation run. Zero values get sensible defaults
// from Defaults.
type Config struct {
	// Peers is the network size.
	Peers int
	// Protocol selects the classifier.
	Protocol ProtocolKind
	// Corpus configures the synthetic delicious-style dataset; its Users
	// field is overridden to Peers.
	Corpus dataset.Config
	// TrainFrac is the labeled fraction (the demo used 0.2).
	TrainFrac float64
	// Distribution spreads training documents over peers.
	Distribution Distribution
	// DropRate is random message loss.
	DropRate float64
	// Churn drives node failures; nil means no churn.
	Churn simnet.SessionModel
	// EvalDocs caps how many test documents are scored (0 = all).
	EvalDocs int
	// Threshold is the tag-assignment confidence threshold; default 0.5.
	Threshold float64
	// Weighting selects the term-weighting scheme of the preprocessing
	// stage; default TermFrequency (the paper's representation).
	Weighting textproc.Weighting
	// CEMPaR and PACE tune the respective protocols.
	CEMPaR cempar.Config
	PACE   pace.Config
	// Seed drives everything.
	Seed int64
	// Parallel is the worker count for the run's CPU-bound phases — each
	// peer's local SVM training, the coordinator's per-tag training, and
	// CEMPaR's per-tag regional cascades — which are independent jobs off
	// the virtual clock. Only the protocol message exchange stays
	// single-threaded on the simulated network. 1 means serial; other
	// values <= 0 mean GOMAXPROCS. Results are bit-identical at any
	// worker count.
	Parallel int
	// Logf, when set, receives the simulator's per-event activity log
	// (message drops, node failures/recoveries) — the "Log activities"
	// feature of the toolkit.
	Logf func(format string, args ...any)
}

// Defaults fills zero fields with standard values and returns the config.
func Defaults(cfg Config) Config {
	if cfg.Peers == 0 {
		cfg.Peers = 32
	}
	if cfg.Protocol == "" {
		cfg.Protocol = ProtoCEMPaR
	}
	if cfg.Corpus.Users == 0 {
		cfg.Corpus = dataset.DefaultConfig()
		// Keep per-peer collections moderate so large sweeps stay fast;
		// the demo's 50..200 range is available by overriding. At the
		// default 20% training fraction each peer labels 8-16 documents.
		cfg.Corpus.DocsPerUserMin = 40
		cfg.Corpus.DocsPerUserMax = 80
	}
	if cfg.TrainFrac == 0 {
		cfg.TrainFrac = 0.2
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	if cfg.Corpus.Seed == 0 {
		cfg.Corpus.Seed = cfg.Seed + 101
	}
	if cfg.Distribution.Seed == 0 {
		cfg.Distribution.Seed = cfg.Seed + 202
	}
	cfg.Corpus.Users = cfg.Peers
	return cfg
}

// latency is the physical-network delay model.
var latency = simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond}

const (
	// stabilizeEvery is how often DHT stabilization and protocol refresh
	// re-run under churn.
	stabilizeEvery = 20 * time.Second
	// trainWindow is the simulated time allowed for collaborative
	// training, and queryWindow the simulated time allowed per query.
	trainWindow = 2 * time.Minute
	queryWindow = 30 * time.Second
	// maxTags caps assigned tags per document.
	maxTags = 4
)

// validate rejects a config no run can honour: an unknown protocol, or a
// Threshold, DropRate or TrainFrac outside [0,1] or NaN. A zero field
// still selects its default.
func validate(cfg Config) error {
	switch cfg.Protocol {
	case ProtoCEMPaR, ProtoPACE, ProtoCentralized, ProtoLocal:
	default:
		return fmt.Errorf("p2pdmt: unknown protocol %q", cfg.Protocol)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Threshold", cfg.Threshold}, {"DropRate", cfg.DropRate}, {"TrainFrac", cfg.TrainFrac}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("p2pdmt: %s %v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Result is what one run measures.
type Result struct {
	Protocol      string
	Peers         int
	Eval          *metrics.MultiLabel
	FailedQueries int
	TotalQueries  int
	// TrainCost and QueryCost split traffic by phase.
	TrainCost metrics.CommCost
	QueryCost metrics.CommCost
	// TrainSimTime is the virtual time training took to quiesce.
	TrainSimTime time.Duration
	// SkippedOffline counts test documents whose owning peer was offline
	// when the query would have been issued: no query exists in that case
	// (the user's machine is off), so they are excluded from TotalQueries.
	SkippedOffline int
	// MeanP1 is mean precision@1 over answered queries (the quality of
	// the single best suggestion in the Fig. 3 suggestion cloud).
	MeanP1 float64
	// OneError is the fraction of answered queries whose top suggestion
	// was wrong.
	OneError float64
	// LivenessMap is the node liveness visualization at the end of the
	// run ("Visualize network").
	LivenessMap string
}

// String renders a compact summary row.
func (r *Result) String() string {
	return fmt.Sprintf("%-12s N=%-4d microF1=%.4f failed=%d/%d train[%s] query[%s]",
		r.Protocol, r.Peers, r.Eval.MicroF1(), r.FailedQueries, r.TotalQueries,
		r.TrainCost, r.QueryCost)
}

// Run executes one full experiment: generate → distribute → train →
// evaluate. It is deterministic for a given config.
func Run(cfg Config) (*Result, error) {
	cfg = Defaults(cfg)
	if err := validate(cfg); err != nil {
		return nil, err
	}
	corpus, err := dataset.Generate(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	train, test := dataset.SplitTrainTest(corpus.Docs, cfg.TrainFrac, cfg.Seed+303)
	return RunWithData(cfg, corpus, train, test)
}

// RunWithData executes an experiment on pre-generated data, so sweeps can
// hold the corpus fixed while varying the network. The config is checked
// before any document is touched.
func RunWithData(cfg Config, corpus *dataset.Corpus, train, test []dataset.Document) (*Result, error) {
	cfg = Defaults(cfg)
	if err := validate(cfg); err != nil {
		return nil, err
	}

	// Preprocess with a shared lexicon (peers agree on word ids; in
	// deployment the id space is the word's hash, which needs no
	// coordination).
	pre := textproc.NewPreprocessor(nil, textproc.Options{
		Weighting: cfg.Weighting,
		Normalize: true,
	})
	trainDocs := make([]protocol.Doc, len(train))
	for i, d := range train {
		trainDocs[i] = protocol.Doc{X: pre.Vectorize(d.Text), Tags: d.Tags}
	}
	// SplitTrainTest returns test documents grouped by user; shuffle so a
	// capped evaluation samples all peers instead of the first user's
	// backlog (which would alias one peer's churn luck into the results).
	test = append([]dataset.Document(nil), test...)
	shuf := rand.New(rand.NewSource(cfg.Seed + 909))
	shuf.Shuffle(len(test), func(i, j int) { test[i], test[j] = test[j], test[i] })
	testVecs := make([]*vector.Sparse, len(test))
	for i, d := range test {
		testVecs[i] = pre.Vectorize(d.Text)
	}

	// Physical network.
	net := simnet.New(simnet.Options{Latency: latency, DropRate: cfg.DropRate, Seed: cfg.Seed + 404})
	if cfg.Logf != nil {
		net.SetLogf(cfg.Logf)
	}
	ids := make([]simnet.NodeID, cfg.Peers)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}

	// Distribute training data over peers.
	perPeerRaw := cfg.Distribution.Assign(train, cfg.Peers)
	perPeer := make([][]protocol.Doc, cfg.Peers)
	// Re-vectorize through the doc index to avoid re-running textproc.
	docByID := make(map[int]protocol.Doc, len(train))
	for i, d := range train {
		docByID[d.ID] = trainDocs[i]
	}
	for p, ds := range perPeerRaw {
		for _, d := range ds {
			perPeer[p] = append(perPeer[p], docByID[d.ID])
		}
	}

	// Protocol under test.
	var clf protocol.Classifier
	var ring *dht.DHT
	switch cfg.Protocol {
	case ProtoCEMPaR:
		cem := cfg.CEMPaR
		if cem.Seed == 0 {
			cem.Seed = cfg.Seed + 505
		}
		if cem.Parallel == 0 {
			cem.Parallel = cfg.Parallel
		}
		// CEMPaR needs the DHT to exist first, and the DHT needs the app
		// handler; tie the knot with a late-bound closure.
		var s *cempar.System
		ring = dht.New(net, ids, func(id simnet.NodeID) simnet.Handler {
			return simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
				if s != nil {
					s.Handler(id).HandleMessage(nn, m)
				}
			})
		})
		s = cempar.New(ring, cem)
		for i, docs := range perPeer {
			s.SetDocs(ids[i], docs)
		}
		clf = s
	case ProtoPACE:
		pc := cfg.PACE
		if pc.Seed == 0 {
			pc.Seed = cfg.Seed + 606
		}
		if pc.Parallel == 0 {
			pc.Parallel = cfg.Parallel
		}
		s := pace.New(net, ids, pc)
		for i, docs := range perPeer {
			s.SetDocs(ids[i], docs)
		}
		clf = s
	case ProtoCentralized:
		s := baseline.NewCentralized(net, ids, baseline.CentralizedConfig{
			Coordinator: ids[0], Seed: cfg.Seed + 707, Parallel: cfg.Parallel,
		})
		for i, docs := range perPeer {
			s.SetDocs(ids[i], docs)
		}
		clf = s
	case ProtoLocal:
		s := baseline.NewLocal(net, ids, 1, cfg.Seed+808)
		s.Parallel = cfg.Parallel
		for i, docs := range perPeer {
			s.SetDocs(ids[i], docs)
		}
		clf = s
	}

	// Churn and maintenance.
	if cfg.Churn != nil {
		simnet.StartChurn(net, cfg.Churn, ids)
		if ring != nil {
			ring.StartStabilizer(stabilizeEvery)
		}
		if s, ok := clf.(*cempar.System); ok {
			var refresh func()
			refresh = func() {
				s.Refresh()
				net.ScheduleSystem(stabilizeEvery, refresh)
			}
			net.ScheduleSystem(stabilizeEvery, refresh)
		}
	}

	// Phase 1: collaborative training.
	clf.Fit()
	net.RunFor(trainWindow)
	trainStats := net.Stats()
	res := &Result{
		Protocol:     clf.Name(),
		Peers:        cfg.Peers,
		TrainSimTime: net.Now(),
		TrainCost: metrics.CommCost{
			Messages: trainStats.MessagesSent,
			Bytes:    trainStats.BytesSent,
			Peers:    cfg.Peers,
		},
	}
	net.ResetStats()

	// Phase 2: evaluation queries. Each test document is queried from the
	// peer that owns it (its original user mapped onto the ring).
	eval := metrics.NewMultiLabel(len(corpus.Tags))
	nEval := len(test)
	if cfg.EvalDocs > 0 && cfg.EvalDocs < nEval {
		nEval = cfg.EvalDocs
	}
	var p1Sum, oneErrSum float64
	answered := 0
	for i := 0; i < nEval; i++ {
		doc := test[i]
		x := testVecs[i]
		from := simnet.NodeID(doc.User % cfg.Peers)
		if !net.Alive(from) {
			// The owner is offline: there is no query to make (the user's
			// machine is off), so this measures nothing about the
			// protocol. Track it separately.
			res.SkippedOffline++
			continue
		}
		var scores []metrics.ScoredTag
		ok := false
		fired := false
		clf.Predict(from, x, func(s []metrics.ScoredTag, o bool) {
			scores, ok, fired = s, o, true
		})
		net.RunFor(queryWindow)
		res.TotalQueries++
		if !fired || !ok {
			res.FailedQueries++
			continue
		}
		answered++
		gold := metrics.NewLabelSet(doc.Tags)
		pred := metrics.NewLabelSet(protocol.SelectTags(scores, cfg.Threshold, maxTags))
		eval.Add(gold, pred)
		p1Sum += metrics.PrecisionAtK(gold, scores, 1)
		oneErrSum += metrics.OneError(gold, scores)
	}
	queryStats := net.Stats()
	res.QueryCost = metrics.CommCost{
		Messages: queryStats.MessagesSent,
		Bytes:    queryStats.BytesSent,
		Peers:    cfg.Peers,
	}
	res.Eval = eval
	res.LivenessMap = VisualizeRing(net)
	if answered > 0 {
		res.MeanP1 = p1Sum / float64(answered)
		res.OneError = oneErrSum / float64(answered)
	}
	return res, nil
}
