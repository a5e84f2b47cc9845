package doctagger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/cempar"
	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/pace"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/textproc"
	"repro/internal/vector"
)

// Protocol names accepted by Config.Protocol.
const (
	ProtocolCEMPaR      = "cempar"
	ProtocolPACE        = "pace"
	ProtocolCentralized = "centralized"
	ProtocolLocal       = "local"
)

// Sentinels for Config fields whose useful "off" setting collides with the
// Go zero value (which keeps the paper's default). They are resolved — and
// out-of-range values rejected — by New.
const (
	// ThresholdNone requests an explicit confidence threshold of 0: every
	// tag the swarm knows clears the bar (Config.Threshold == 0 keeps the
	// default of 0.5 instead).
	ThresholdNone = -1.0
	// MaxTagsUnlimited removes the per-document tag cap
	// (Config.MaxTags == 0 keeps the default of 4 instead).
	MaxTagsUnlimited = -1
)

// Config configures a Tagger. The zero value selects CEMPaR over 16 peers
// with the paper's defaults.
type Config struct {
	// Protocol selects the P2P classification engine: "cempar" (default),
	// "pace", "centralized" or "local".
	Protocol string
	// Peers is the swarm size including the local user (peer 0);
	// default 16.
	Peers int
	// Threshold is the confidence needed to auto-assign a tag — the
	// "Confidence" slider of the demo UI. 0 means the default of 0.5; pass
	// ThresholdNone for an explicit threshold of 0. Other values must lie
	// in (0, 1]; New rejects anything else.
	Threshold float64
	// MaxTags caps tags per document. 0 means the default of 4; pass
	// MaxTagsUnlimited for no cap. Other negative values are rejected by
	// New.
	MaxTags int
	// SensitiveWords are filtered from every document before feature
	// extraction (the privacy filter of §2).
	SensitiveWords []string
	// Regions is CEMPaR's super-peer region count; default 4.
	Regions int
	// TopK is PACE's ensemble size; default 5.
	TopK int
	// Seed makes the swarm deterministic.
	Seed int64
	// Parallel is the worker count for per-peer training during Train.
	// 0 (the default) uses every core; 1 runs serially. Results are
	// bit-identical at any setting; set 1 when the caller already owns the
	// cores (e.g. experiment sweeps running many swarms concurrently).
	Parallel int
}

func (c *Config) defaults() error {
	if c.Protocol == "" {
		c.Protocol = ProtocolCEMPaR
	}
	switch c.Protocol {
	case ProtocolCEMPaR, ProtocolPACE, ProtocolCentralized, ProtocolLocal:
	default:
		return fmt.Errorf("doctagger: unknown protocol %q", c.Protocol)
	}
	if c.Peers <= 0 {
		c.Peers = 16
	}
	switch {
	case c.Threshold == ThresholdNone:
		c.Threshold = 0
	case c.Threshold == 0:
		c.Threshold = 0.5
	case c.Threshold < 0 || c.Threshold > 1 || math.IsNaN(c.Threshold):
		return fmt.Errorf("doctagger: Threshold %v outside [0,1] (use ThresholdNone for an explicit 0)", c.Threshold)
	}
	switch {
	case c.MaxTags == MaxTagsUnlimited:
		// Kept as-is: tag selection treats a non-positive cap as "no cap".
	case c.MaxTags == 0:
		c.MaxTags = 4
	case c.MaxTags < 0:
		return fmt.Errorf("doctagger: MaxTags %d is negative (use MaxTagsUnlimited for no cap)", c.MaxTags)
	}
	if c.Regions == 0 {
		// Small swarms pool better with fewer, larger regions.
		c.Regions = 2
		if c.Peers >= 32 {
			c.Regions = 4
		}
	}
	return nil
}

// Suggestion is one entry of the suggestion cloud (Fig. 3): a tag with the
// swarm's confidence that it applies.
type Suggestion struct {
	Tag        string
	Confidence float64
}

// NetworkStats summarizes the simulated swarm's traffic.
type NetworkStats struct {
	Messages int64
	Bytes    int64
}

// Tagger is the P2PDocTagger system: a preprocessing pipeline plus a
// simulated peer swarm running a collaborative classification protocol.
// It is not safe for concurrent use.
type Tagger struct {
	cfg     Config
	pre     *textproc.Preprocessor
	net     *simnet.Network
	clf     protocol.Classifier
	refiner protocol.Refiner
	self    simnet.NodeID
	trained bool
	staged  map[simnet.NodeID][]protocol.Doc
	setDocs func(simnet.NodeID, []protocol.Doc)

	// The query path: every document flows from the pooled preprocessing
	// workspace into the protocol's PredictEntries with no materialized
	// *vector.Sparse. visit and onScores are built once — per-query
	// closures would escape to the heap on every call — and onScores
	// copies each answer into the reused scores/answered pair, which the
	// single-goroutine contract makes safe. selScratch is SelectTagsInto's
	// reused sort buffer.
	visit      func([]vector.Entry)
	onScores   func([]metrics.ScoredTag, bool)
	scores     []metrics.ScoredTag
	answered   bool
	selScratch []metrics.ScoredTag
}

// ErrNotTrained is returned by Suggest/AutoTag before Train has run.
var ErrNotTrained = errors.New("doctagger: call Train before requesting tags")

// ErrNoAnswer is returned when the swarm cannot answer a query (e.g. the
// responsible super-peers are unreachable).
var ErrNoAnswer = errors.New("doctagger: the swarm returned no answer")

// New builds a Tagger with a fresh simulated swarm.
func New(cfg Config) (*Tagger, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	t := &Tagger{
		cfg: cfg,
		pre: textproc.NewPreprocessor(nil, textproc.Options{
			Weighting: textproc.TermFrequency,
			Normalize: true,
		}),
		net: simnet.New(simnet.Options{
			Latency: simnet.UniformLatency{Min: 10 * time.Millisecond, Max: 60 * time.Millisecond},
			Seed:    cfg.Seed + 1,
		}),
		self:   0,
		staged: make(map[simnet.NodeID][]protocol.Doc),
	}
	t.pre.AddSensitiveWords(cfg.SensitiveWords...)
	ids := make([]simnet.NodeID, cfg.Peers)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	switch cfg.Protocol {
	case ProtocolCEMPaR:
		var s *cempar.System
		ring := dht.New(t.net, ids, func(id simnet.NodeID) simnet.Handler {
			return simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
				if s != nil {
					s.Handler(id).HandleMessage(nn, m)
				}
			})
		})
		s = cempar.New(ring, cempar.Config{
			Regions: cfg.Regions, Weighted: true, Seed: cfg.Seed + 2,
			Parallel: cfg.Parallel,
		})
		t.clf, t.refiner, t.setDocs = s, s, s.SetDocs
	case ProtocolPACE:
		s := pace.New(t.net, ids, pace.Config{TopK: cfg.TopK, Seed: cfg.Seed + 3, Parallel: cfg.Parallel})
		t.clf, t.refiner, t.setDocs = s, s, s.SetDocs
	case ProtocolCentralized:
		s := baseline.NewCentralized(t.net, ids, baseline.CentralizedConfig{
			Coordinator: ids[0], Seed: cfg.Seed + 4, Parallel: cfg.Parallel,
		})
		t.clf, t.refiner, t.setDocs = s, s, s.SetDocs
	case ProtocolLocal:
		s := baseline.NewLocal(t.net, ids, 1, cfg.Seed+5)
		s.Parallel = cfg.Parallel
		t.clf, t.refiner, t.setDocs = s, s, s.SetDocs
	}
	t.onScores = func(sc []metrics.ScoredTag, ok bool) {
		// The scores may live in the protocol's reused scratch, valid only
		// during the callback: copy into the tagger's own reused slice.
		t.answered = ok
		t.scores = append(t.scores[:0], sc...)
	}
	t.visit = func(entries []vector.Entry) {
		t.clf.PredictEntries(t.self, entries, t.onScores)
	}
	return t, nil
}

// AddDocument manually tags a document at a peer (0 = the local user)
// before training — the bootstrap phase of Fig. 1 ("in the beginning ...
// users have to manually tag some of their documents"). After Train it
// behaves like Refine at that peer.
func (t *Tagger) AddDocument(peer int, text string, tags ...string) error {
	if peer < 0 || peer >= t.cfg.Peers {
		return fmt.Errorf("doctagger: peer %d out of range [0,%d)", peer, t.cfg.Peers)
	}
	if len(tags) == 0 {
		return errors.New("doctagger: a manually tagged document needs at least one tag")
	}
	doc := protocol.Doc{X: t.pre.Vectorize(text), Tags: append([]string(nil), tags...)}
	id := simnet.NodeID(peer)
	if t.trained {
		t.refiner.Refine(id, doc)
		t.run()
		return nil
	}
	t.staged[id] = append(t.staged[id], doc)
	return nil
}

// Train runs the collaborative learning round over everything staged so
// far. It can be called again later to incorporate newly added documents.
func (t *Tagger) Train() error {
	if len(t.staged) == 0 && !t.trained {
		return errors.New("doctagger: no manually tagged documents to learn from")
	}
	if !t.trained {
		for id, docs := range t.staged {
			t.setDocs(id, docs)
		}
		t.staged = nil
		t.clf.Fit()
		t.run()
		t.trained = true
		return nil
	}
	// Already trained: nothing staged (AddDocument refines immediately).
	return nil
}

// run drives the simulated network to quiescence.
func (t *Tagger) run() { t.net.Run(0) }

// predictScores answers one local query: the document streams into the
// protocol, and the network runs until the answer is in (a no-op for
// protocols that answer synchronously). A query whose callback never
// fires counts as unanswered. The returned scores live in reused
// scratch: consume them before the next query.
func (t *Tagger) predictScores(text string) ([]metrics.ScoredTag, bool) {
	t.answered = false
	t.pre.VectorizeInto(text, t.visit)
	t.run()
	return t.scores, t.answered
}

// Suggest returns the suggestion cloud for a document: every known tag
// with its confidence, highest first ("relevant tags will be shown in the
// Suggestion Cloud panel ... tags with higher confidence will be in larger
// font").
func (t *Tagger) Suggest(text string) ([]Suggestion, error) {
	if !t.trained {
		return nil, ErrNotTrained
	}
	scores, answered := t.predictScores(text)
	if !answered {
		return nil, ErrNoAnswer
	}
	out := make([]Suggestion, 0, len(scores))
	for _, s := range scores {
		out = append(out, Suggestion{Tag: s.Tag, Confidence: s.Score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Tag < out[j].Tag
	})
	return out, nil
}

// AutoTag assigns tags to a document using the confidence threshold — the
// "AutoTag" button of Fig. 3. A document always receives at least one tag
// (the single best suggestion) unless the swarm cannot answer.
func (t *Tagger) AutoTag(text string) ([]string, error) {
	if !t.trained {
		return nil, ErrNotTrained
	}
	scores, answered := t.predictScores(text)
	if !answered {
		return nil, ErrNoAnswer
	}
	var tags []string
	tags, t.selScratch = protocol.SelectTagsInto(nil, scores, t.selScratch, t.cfg.Threshold, t.cfg.MaxTags)
	return tags, nil
}

// AutoTagBatch assigns tags to many documents and returns one tag list per
// input text, in input order: exactly what calling AutoTag on each text
// in sequence would, with each document flowing through the tagger's
// reused scratch, so the batch's intermediate state is O(1).
//
// Documents the swarm cannot answer get a nil tag list rather than
// aborting the batch; the first such failure is reported as an
// ErrNoAnswer-wrapping error alongside the remaining results. Answered
// documents always get a non-nil list (empty if no tag clears the
// threshold), so a nil row unambiguously means "unanswered" even when the
// batch carries an error for a different row — the serving layer relies
// on this to fail exactly the right requests.
func (t *Tagger) AutoTagBatch(texts []string) ([][]string, error) {
	if !t.trained {
		return nil, ErrNotTrained
	}
	out := make([][]string, len(texts))
	var firstErr error
	for i, text := range texts {
		scores, answered := t.predictScores(text)
		if !answered {
			if firstErr == nil {
				firstErr = fmt.Errorf("doctagger: document %d: %w", i, ErrNoAnswer)
			}
			continue
		}
		var tags []string
		tags, t.selScratch = protocol.SelectTagsInto(nil, scores, t.selScratch, t.cfg.Threshold, t.cfg.MaxTags)
		if tags == nil {
			tags = []string{}
		}
		out[i] = tags
	}
	return out, firstErr
}

// Refine records the user's corrected tags for a document at the local
// peer and updates the swarm's models ("upon the refinement of tags,
// P2PDocTagger will automatically update the classification model(s) in
// the back-end").
func (t *Tagger) Refine(text string, tags ...string) error {
	if !t.trained {
		return ErrNotTrained
	}
	if len(tags) == 0 {
		return errors.New("doctagger: refinement needs at least one tag")
	}
	doc := protocol.Doc{X: t.pre.Vectorize(text), Tags: append([]string(nil), tags...)}
	t.refiner.Refine(t.self, doc)
	t.run()
	return nil
}

// SetThreshold moves the confidence slider. Unlike Config.Threshold, the
// value is literal: 0 means "accept every tag", no sentinel needed. Values
// outside [0, 1] are rejected — confidences are probabilities, so an
// out-of-range threshold would silently pin tagging to "everything" or
// "nothing" — and leave the current threshold unchanged.
func (t *Tagger) SetThreshold(th float64) error {
	if th < 0 || th > 1 || math.IsNaN(th) {
		return fmt.Errorf("doctagger: threshold %v outside [0,1]", th)
	}
	t.cfg.Threshold = th
	return nil
}

// Threshold reports the current confidence threshold.
func (t *Tagger) Threshold() float64 { return t.cfg.Threshold }

// Protocol reports the active protocol's display name.
func (t *Tagger) Protocol() string { return t.clf.Name() }

// Stats reports the traffic the swarm has exchanged so far.
func (t *Tagger) Stats() NetworkStats {
	s := t.net.Stats()
	return NetworkStats{Messages: s.MessagesSent, Bytes: s.BytesSent}
}

// ExplainDocument returns the n highest-weighted preprocessed terms of a
// document — what the classifiers actually see after stop-word removal and
// stemming. Useful for demo walk-throughs and debugging suggestions.
func (t *Tagger) ExplainDocument(text string, n int) []string {
	return t.pre.TopTerms(t.pre.Vectorize(text), n)
}
