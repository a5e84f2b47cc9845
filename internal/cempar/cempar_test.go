package cempar

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/vector"
)

// topicDoc builds a document vector concentrated on a topic's feature block
// (features [topic*8, topic*8+8)), labeled with the topic's tag.
func topicDoc(topic int, variant int) protocol.Doc {
	m := map[int32]float64{}
	for j := 0; j < 4; j++ {
		m[int32(topic*8+(variant+j)%8)] = 1
	}
	// Shared background feature.
	m[100] = 0.5
	return protocol.Doc{
		X:    vector.FromMap(m).Normalize(),
		Tags: []string{tagOf(topic)},
	}
}

func tagOf(topic int) string { return []string{"music", "travel", "food"}[topic] }

// build creates a CEMPaR deployment over n peers where peer i holds
// documents of topic i%3.
func build(t *testing.T, n int, cfg Config) (*simnet.Network, *System) {
	t.Helper()
	return buildTapped(t, n, cfg, func(simnet.Message) {})
}

// buildTapped is build with tap observing every application message just
// before the protocol handles it.
func buildTapped(t *testing.T, n int, cfg Config, tap func(simnet.Message)) (*simnet.Network, *System) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(5 * time.Millisecond), Seed: 1})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	var s *System
	ring := dht.New(net, ids, func(id simnet.NodeID) simnet.Handler {
		return simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			if s != nil {
				tap(m)
				s.Handler(id).HandleMessage(nn, m)
			}
		})
	})
	s = New(ring, cfg)
	for i := range ids {
		var docs []protocol.Doc
		// Each peer holds several docs of its main topic and a few of the
		// next topic, so every peer sees at least two classes.
		for v := 0; v < 6; v++ {
			docs = append(docs, topicDoc(i%3, v))
		}
		for v := 0; v < 3; v++ {
			docs = append(docs, topicDoc((i+1)%3, v))
		}
		s.SetDocs(ids[i], docs)
	}
	return net, s
}

func predict(t *testing.T, net *simnet.Network, s *System, from simnet.NodeID, x *vector.Sparse) ([]metrics.ScoredTag, bool) {
	t.Helper()
	var scores []metrics.ScoredTag
	ok, fired := false, false
	s.Predict(from, x, func(sc []metrics.ScoredTag, o bool) {
		scores, ok, fired = sc, o, true
	})
	net.RunFor(30 * time.Second)
	if !fired {
		t.Fatal("prediction callback never fired")
	}
	return scores, ok
}

// scoreOf returns tag's score in scores, or 0 when tag is absent.
func scoreOf(scores []metrics.ScoredTag, tag string) float64 {
	if i := slices.IndexFunc(scores, func(s metrics.ScoredTag) bool { return s.Tag == tag }); i >= 0 {
		return scores[i].Score
	}
	return 0
}

func TestFitAndPredict(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, Weighted: true, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	// Query a fresh music document.
	q := topicDoc(0, 2).X
	scores, ok := predict(t, net, s, 5, q)
	if !ok {
		t.Fatal("prediction failed")
	}
	if music := scoreOf(scores, "music"); music <= scoreOf(scores, "travel") || music <= scoreOf(scores, "food") {
		t.Errorf("music should score highest: %v", scores)
	}
	best := protocol.SelectTags(scores, 0.5, 1)
	if len(best) != 1 || best[0] != "music" {
		t.Errorf("SelectTags = %v", best)
	}
}

// TestPredictEntriesMatchesPredict pins the streaming entry point to the
// materialized one on twin deployments: the same queries, from a
// super-peer and from other peers, score bit-identically with the same
// ok. The borrowed entries are overwritten right after the call and
// before the network delivers the query, so an implementation that kept
// the borrow instead of copying it would answer a different query.
func TestPredictEntriesMatchesPredict(t *testing.T) {
	netA, a := build(t, 12, Config{Regions: 2, Weighted: true, Seed: 3})
	a.Fit()
	netA.RunFor(time.Minute)
	netB, b := build(t, 12, Config{Regions: 2, Weighted: true, Seed: 3})
	b.Fit()
	netB.RunFor(time.Minute)
	// Peer 0 (the Tagger's origin), a super-peer, and two other peers.
	origins := []simnet.NodeID{0, a.d.ElectSuperPeers(a.cfg.Regions)[0], 5, 10}
	for _, from := range origins {
		for topic := 0; topic < 3; topic++ {
			x := topicDoc(topic, int(from)%8).X
			want, wantOK := predict(t, netA, a, from, x)
			var got []metrics.ScoredTag
			gotOK, fired := false, false
			entries := slices.Clone(x.Entries())
			b.PredictEntries(from, entries, func(sc []metrics.ScoredTag, o bool) {
				got = append([]metrics.ScoredTag(nil), sc...)
				gotOK, fired = o, true
			})
			for i := range entries {
				entries[i] = vector.Entry{Index: 300 + int32(i), Value: -1}
			}
			netB.RunFor(30 * time.Second)
			if !fired {
				t.Fatalf("peer %d topic %d: PredictEntries callback never fired", from, topic)
			}
			if gotOK != wantOK || len(got) != len(want) {
				t.Fatalf("peer %d topic %d: streamed %d scores (ok=%v), materialized %d (ok=%v)",
					from, topic, len(got), gotOK, len(want), wantOK)
			}
			for i := range got {
				if got[i].Tag != want[i].Tag || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Errorf("peer %d topic %d score %d: streamed %+v != materialized %+v", from, topic, i, got[i], want[i])
				}
			}
		}
	}
}

func TestModelsReachSuperPeers(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	sps := s.d.ElectSuperPeers(s.cfg.Regions)
	if len(sps) != 2 {
		t.Fatalf("super-peers = %v", sps)
	}
	total := 0
	for _, sp := range sps {
		total += len(s.peers[sp].regional)
	}
	if total == 0 {
		t.Fatal("no regional models cascaded")
	}
}

func TestPredictFromDeadPeerFails(t *testing.T) {
	net, s := build(t, 8, Config{Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	net.Kill(2)
	fired := false
	s.Predict(2, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("dead peer prediction reported ok")
		}
	})
	if !fired {
		t.Fatal("callback not fired synchronously for dead peer")
	}
}

func TestQueryTimesOutWhenSuperPeersDie(t *testing.T) {
	net, s := build(t, 8, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	for _, sp := range s.d.ElectSuperPeers(s.cfg.Regions) {
		net.Kill(sp)
	}
	// Pick a querying peer that is still alive.
	var from simnet.NodeID = -1
	for _, id := range net.AliveNodes() {
		from = id
		break
	}
	if from < 0 {
		t.Skip("all peers were super-peers")
	}
	scores, ok := predict(t, net, s, from, topicDoc(0, 0).X)
	if ok && len(scores) > 0 {
		t.Error("query to dead super-peers should fail or return empty")
	}
}

func TestRefreshAfterSuperPeerFailureRestoresService(t *testing.T) {
	net, s := build(t, 12, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	before := s.d.ElectSuperPeers(s.cfg.Regions)
	for _, sp := range before {
		net.Kill(sp)
	}
	// Restabilize the ring and re-propagate models to the new super-peers.
	// (The p2pdmt harness does this periodically under churn.)
	s.d.Stabilize()
	net.RunFor(10 * time.Second)
	s.Refresh()
	net.RunFor(time.Minute)
	var from simnet.NodeID = -1
	for _, id := range net.AliveNodes() {
		from = id
		break
	}
	scores, ok := predict(t, net, s, from, topicDoc(1, 1).X)
	if !ok {
		t.Fatal("prediction still failing after refresh")
	}
	if scoreOf(scores, "travel") <= scoreOf(scores, "food") {
		t.Errorf("travel should outscore food: %v", scores)
	}
}

func TestRefineImprovesCoverage(t *testing.T) {
	net, s := build(t, 9, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	// Introduce a brand-new tag via refinement at one peer.
	novel := protocol.Doc{
		X:    vector.FromMap(map[int32]float64{200: 1, 201: 1}).Normalize(),
		Tags: []string{"quantum"},
	}
	// Refine with several positives so a model can exist.
	for v := 0; v < 4; v++ {
		d := protocol.Doc{
			X:    vector.FromMap(map[int32]float64{200: 1, 201: 1, 202 + int32(v): 0.5}).Normalize(),
			Tags: []string{"quantum"},
		}
		s.Refine(3, d)
	}
	net.RunFor(time.Minute)
	scores, ok := predict(t, net, s, 4, novel.X)
	if !ok {
		t.Fatal("prediction failed after refine")
	}
	if !slices.ContainsFunc(scores, func(s metrics.ScoredTag) bool { return s.Tag == "quantum" }) {
		t.Error("refined tag never became predictable")
	}
}

func TestWeightedVsUnweightedDiffer(t *testing.T) {
	netW, sw := build(t, 12, Config{Regions: 3, Weighted: true, Seed: 3})
	sw.Fit()
	netW.RunFor(time.Minute)
	netU, su := build(t, 12, Config{Regions: 3, Weighted: false, Seed: 3})
	su.Fit()
	netU.RunFor(time.Minute)
	q := topicDoc(0, 3).X
	a, okA := predict(t, netW, sw, 1, q)
	b, okB := predict(t, netU, su, 1, q)
	if !okA || !okB {
		t.Fatal("predictions failed")
	}
	// Both should still rank music first.
	if protocol.SelectTags(a, 0, 1)[0] != "music" || protocol.SelectTags(b, 0, 1)[0] != "music" {
		t.Error("voting mode changed the top-1 on an easy query")
	}
}

func TestTrainCostCountedOnce(t *testing.T) {
	net, s := build(t, 8, Config{Regions: 2, Seed: 3})
	s.Fit()
	net.RunFor(time.Minute)
	sent := net.Stats().MessagesByKind["cempar.models"]
	if sent == 0 || sent > 8 {
		t.Errorf("model messages = %d, want one per peer at most", sent)
	}
	// A refresh without super-peer change must not re-send models.
	s.Refresh()
	net.RunFor(time.Minute)
	if again := net.Stats().MessagesByKind["cempar.models"]; again != sent {
		t.Errorf("refresh re-sent models: %d -> %d", sent, again)
	}
}

func TestString(t *testing.T) {
	_, s := build(t, 4, Config{Regions: 2, Seed: 1})
	if s.String() == "" || s.Name() != "CEMPaR" {
		t.Error("bad name/string")
	}
}

// answersTo runs one query and returns the super-peer answers it drew, as
// delivered to the origin.
func answersTo(t *testing.T, net *simnet.Network, s *System, answers *[]simnet.Message, from simnet.NodeID, x *vector.Sparse) []simnet.Message {
	t.Helper()
	*answers = nil
	if _, ok := predict(t, net, s, from, x); !ok {
		t.Fatal("prediction failed")
	}
	if len(*answers) == 0 {
		t.Fatal("no super-peer answered")
	}
	return *answers
}

// tapAnswers collects the cempar.answer messages a deployment delivers.
func tapAnswers(answers *[]simnet.Message) func(simnet.Message) {
	return func(m simnet.Message) {
		if m.Kind == "cempar.answer" {
			*answers = append(*answers, m)
		}
	}
}

// checkAnswer pins one answer to the per-tag reference: every tag the
// super-peer holds a regional model for is answered, with exactly the
// calibrated KernelModel.Decision and the configured vote weight.
func checkAnswer(t *testing.T, s *System, weighted bool, m simnet.Message, x *vector.Sparse) {
	t.Helper()
	a := m.Payload.(answerMsg)
	p := s.peers[m.From]
	if len(a.tags) != len(p.regional) || len(a.scores) != len(a.tags) || len(a.weight) != len(a.tags) {
		t.Fatalf("super-peer %d answered %d tags, %d scores, %d weights for %d regional models",
			m.From, len(a.tags), len(a.scores), len(a.weight), len(p.regional))
	}
	for i, tag := range a.tags {
		model, ok := p.regional[tag]
		if !ok {
			t.Fatalf("super-peer %d answered tag %q it has no regional model for", m.From, tag)
		}
		j := sort.SearchStrings(p.tags, tag)
		weight := p.weight[j]
		if want := p.platt[j].Prob(model.Decision(x)); math.Float64bits(a.scores[i]) != math.Float64bits(want) {
			t.Errorf("super-peer %d tag %q: answered %v, reference %v", m.From, tag, a.scores[i], want)
		}
		if !weighted {
			weight = 1
		}
		if a.weight[i] != weight {
			t.Errorf("super-peer %d tag %q: vote weight %v, want %v", m.From, tag, a.weight[i], weight)
		}
	}
}

// TestRegionalBankMatchesReference: what a super-peer answers from its
// kernel bank equals, bit for bit, Platt.Prob of the per-tag
// per-tag regional KernelModel.Decision — for every
// super-peer, tag and query, weighted and unweighted.
func TestRegionalBankMatchesReference(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		var answers []simnet.Message
		net, s := buildTapped(t, 12, Config{Regions: 3, Weighted: weighted, Seed: 3}, tapAnswers(&answers))
		s.Fit()
		net.RunFor(time.Minute)
		queries := []*vector.Sparse{
			vector.Zero(),
			vector.FromMap(map[int32]float64{300: 1}), // no feature any support vector carries
		}
		for topic := 0; topic < 3; topic++ {
			for v := 0; v < 8; v++ {
				queries = append(queries, topicDoc(topic, v).X)
			}
		}
		answered := map[simnet.NodeID]bool{}
		for qi, x := range queries {
			for _, m := range answersTo(t, net, s, &answers, simnet.NodeID(qi%12), x) {
				answered[m.From] = true
				checkAnswer(t, s, weighted, m, x)
			}
		}
		for _, sp := range s.d.ElectSuperPeers(s.cfg.Regions) {
			if !answered[sp] {
				t.Errorf("super-peer %d never answered", sp)
			}
		}
	}
}

// TestBankRebuiltAfterRefine: a refinement that introduces a brand-new tag
// reaches the serving path — after the re-cascade every peer's bank lists
// exactly its regional models' tags, and the new tag is answered with the
// reference score. A bank left over from the previous cascade fails this.
func TestBankRebuiltAfterRefine(t *testing.T) {
	var answers []simnet.Message
	net, s := buildTapped(t, 9, Config{Regions: 2, Seed: 3}, tapAnswers(&answers))
	s.Fit()
	net.RunFor(time.Minute)
	x := vector.FromMap(map[int32]float64{200: 1, 201: 1}).Normalize()
	answersQuantum := func() bool {
		found := false
		for _, m := range answersTo(t, net, s, &answers, 4, x) {
			checkAnswer(t, s, false, m, x)
			found = found || slices.Contains(m.Payload.(answerMsg).tags, "quantum")
		}
		return found
	}
	if answersQuantum() {
		t.Fatal("tag answered before it was ever trained")
	}
	s.Refine(3, protocol.Doc{X: x, Tags: []string{"quantum"}})
	net.RunFor(time.Minute) // well past settleDelay: the super-peer has re-cascaded
	for id, p := range s.peers {
		var want []string
		for tag := range p.regional {
			want = append(want, tag)
		}
		sort.Strings(want)
		if !slices.Equal(p.tags, want) || p.bank.NumTags() != len(want) {
			t.Fatalf("peer %d: answer tags %v, bank of %d tags, regional models %v", id, p.tags, p.bank.NumTags(), want)
		}
	}
	if !answersQuantum() {
		t.Error("refined tag never reached a super-peer's bank")
	}
}
