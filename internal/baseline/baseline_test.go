package baseline

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/vector"
)

func topicDoc(topic, variant int) protocol.Doc {
	m := map[int32]float64{}
	for j := 0; j < 4; j++ {
		m[int32(topic*8+(variant+j)%8)] = 1
	}
	return protocol.Doc{
		X:    vector.FromMap(m).Normalize(),
		Tags: []string{[]string{"music", "travel", "food"}[topic]},
	}
}

func setupCentral(t *testing.T, n int) (*simnet.Network, *Centralized) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(5 * time.Millisecond), Seed: 1})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	c := NewCentralized(net, ids, CentralizedConfig{Coordinator: 0, Seed: 2})
	for i := range ids {
		var docs []protocol.Doc
		for v := 0; v < 6; v++ {
			docs = append(docs, topicDoc(i%3, v))
		}
		for v := 0; v < 3; v++ {
			docs = append(docs, topicDoc((i+1)%3, v))
		}
		c.SetDocs(ids[i], docs)
	}
	return net, c
}

func TestCentralizedFitAndPredict(t *testing.T) {
	net, c := setupCentral(t, 9)
	c.Fit()
	net.RunFor(time.Minute)
	var scores []metrics.ScoredTag
	ok := false
	c.Predict(4, topicDoc(2, 1).X, func(sc []metrics.ScoredTag, o bool) { scores, ok = sc, o })
	net.RunFor(time.Minute)
	if !ok {
		t.Fatal("prediction failed")
	}
	if protocol.SelectTags(scores, 0, 1)[0] != "food" {
		t.Errorf("prediction = %v", scores)
	}
}

func TestCentralizedPredictFromCoordinator(t *testing.T) {
	net, c := setupCentral(t, 6)
	c.Fit()
	net.RunFor(time.Minute)
	ok := false
	c.Predict(0, topicDoc(0, 1).X, func(_ []metrics.ScoredTag, o bool) { ok = o })
	// Coordinator answers synchronously.
	if !ok {
		t.Fatal("coordinator self-query failed")
	}
}

func setupLocal(t *testing.T, n int) (*simnet.Network, *Local) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(time.Millisecond), Seed: 1})
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i)
	}
	l := NewLocal(net, ids, 1, 2)
	for i := range ids {
		var docs []protocol.Doc
		for v := 0; v < 6; v++ {
			docs = append(docs, topicDoc(i%3, v))
		}
		for v := 0; v < 3; v++ {
			docs = append(docs, topicDoc((i+1)%3, v))
		}
		l.SetDocs(ids[i], docs)
	}
	return net, l
}

// TestPredictEntriesMatchesPredict pins the streaming entry point to the
// materialized one for both baselines and both centralized origins: the
// same query must score bit-identically through either path.
func TestPredictEntriesMatchesPredict(t *testing.T) {
	predict := func(clf protocol.Classifier, net *simnet.Network, from simnet.NodeID, x *vector.Sparse) ([]metrics.ScoredTag, bool) {
		var scores []metrics.ScoredTag
		ok := false
		clf.Predict(from, x, func(sc []metrics.ScoredTag, o bool) {
			scores = append([]metrics.ScoredTag(nil), sc...)
			ok = o
		})
		net.RunFor(time.Minute)
		return scores, ok
	}
	stream := func(ss protocol.StreamScorer, net *simnet.Network, from simnet.NodeID, x *vector.Sparse) ([]metrics.ScoredTag, bool) {
		var scores []metrics.ScoredTag
		ok := false
		ss.PredictEntries(from, x.Entries(), func(sc []metrics.ScoredTag, o bool) {
			scores = append([]metrics.ScoredTag(nil), sc...)
			ok = o
		})
		net.RunFor(time.Minute)
		return scores, ok
	}
	compare := func(t *testing.T, name string, got, want []metrics.ScoredTag, gotOK, wantOK bool) {
		t.Helper()
		if gotOK != wantOK {
			t.Fatalf("%s: streaming ok=%v, materialized ok=%v", name, gotOK, wantOK)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d streamed scores, %d materialized", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s score %d: streamed %+v != materialized %+v", name, i, got[i], want[i])
			}
		}
	}

	t.Run("centralized", func(t *testing.T) {
		netA, a := setupCentral(t, 6)
		a.Fit()
		netA.RunFor(time.Minute)
		netB, b := setupCentral(t, 6)
		b.Fit()
		netB.RunFor(time.Minute)
		for _, from := range []simnet.NodeID{0, 3} { // coordinator and remote origin
			for topic := 0; topic < 3; topic++ {
				x := topicDoc(topic, 1).X
				want, wantOK := predict(a, netA, from, x)
				got, gotOK := stream(b, netB, from, x)
				compare(t, "centralized", got, want, gotOK, wantOK)
			}
		}
	})
	t.Run("local", func(t *testing.T) {
		net, l := setupLocal(t, 6)
		l.Fit()
		for topic := 0; topic < 3; topic++ {
			x := topicDoc(topic, 2).X
			want, wantOK := predict(l, net, 2, x)
			got, gotOK := stream(l, net, 2, x)
			compare(t, "local", got, want, gotOK, wantOK)
		}
	})
}

func TestCentralizedSinglePointOfFailure(t *testing.T) {
	net, c := setupCentral(t, 6)
	c.Fit()
	net.RunFor(time.Minute)
	net.Kill(0) // the coordinator
	fired := false
	c.Predict(3, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("query succeeded with dead coordinator")
		}
	})
	if !fired {
		t.Fatal("callback not fired")
	}
}

// TestCentralizedLostQueryNeverFires pins Predict's documented contract
// for a query lost in flight: no timeout is scheduled, so the callback
// stays unfired after the network drains — the caller's cue to count the
// query failed — and the stranded request disturbs no later query from
// the same origin.
func TestCentralizedLostQueryNeverFires(t *testing.T) {
	net, c := setupCentral(t, 6)
	c.Fit()
	net.RunFor(time.Minute)
	lost := false
	c.Predict(3, topicDoc(0, 0).X, func([]metrics.ScoredTag, bool) { lost = true })
	net.Kill(0) // the coordinator dies with the query on the wire
	net.RunFor(time.Minute)
	if lost {
		t.Fatal("a query dropped at the dead coordinator was answered")
	}
	net.Revive(0)
	var scores []metrics.ScoredTag
	ok := false
	c.Predict(3, topicDoc(2, 1).X, func(sc []metrics.ScoredTag, o bool) { scores, ok = sc, o })
	net.RunFor(time.Minute)
	if lost {
		t.Error("the lost query's callback fired on a later answer")
	}
	if !ok || protocol.SelectTags(scores, 0, 1)[0] != "food" {
		t.Errorf("query after the coordinator returned: ok=%v scores=%v", ok, scores)
	}
}

func TestCentralizedUploadCostDominatedByData(t *testing.T) {
	net, c := setupCentral(t, 8)
	c.Fit()
	net.RunFor(time.Minute)
	s := net.Stats()
	if s.MessagesByKind["central.upload"] != 7 {
		t.Errorf("uploads = %d, want 7 (everyone but the coordinator)", s.MessagesByKind["central.upload"])
	}
	// The coordinator is the hotspot: it receives everything.
	if s.BytesByKind["central.upload"] == 0 {
		t.Error("no upload bytes charged")
	}
}

func TestCentralizedRefine(t *testing.T) {
	net, c := setupCentral(t, 5)
	c.Fit()
	net.RunFor(time.Minute)
	for v := 0; v < 4; v++ {
		c.Refine(2, protocol.Doc{
			X:    vector.FromMap(map[int32]float64{400 + int32(v): 1, 450: 1}).Normalize(),
			Tags: []string{"niche"},
		})
	}
	net.RunFor(time.Minute)
	found := false
	c.Predict(1, vector.FromMap(map[int32]float64{450: 1}).Normalize(), func(sc []metrics.ScoredTag, ok bool) {
		if !ok {
			return
		}
		_, found = protocol.ScoreMap(sc)["niche"]
	})
	net.RunFor(time.Minute)
	if !found {
		t.Error("refined tag not learned by coordinator")
	}
}

func TestLocalPredictsOwnTopicsOnly(t *testing.T) {
	net := simnet.New(simnet.Options{Latency: simnet.FixedLatency(time.Millisecond), Seed: 1})
	ids := []simnet.NodeID{0, 1}
	l := NewLocal(net, ids, 1, 2)
	// Peer 0 has music and travel docs; peer 1 food and music.
	var d0, d1 []protocol.Doc
	for v := 0; v < 6; v++ {
		d0 = append(d0, topicDoc(0, v))
		d1 = append(d1, topicDoc(2, v))
	}
	for v := 0; v < 3; v++ {
		d0 = append(d0, topicDoc(1, v))
		d1 = append(d1, topicDoc(0, v))
	}
	l.SetDocs(0, d0)
	l.SetDocs(1, d1)
	l.Fit()
	if s := net.Stats(); s.MessagesSent != 0 {
		t.Errorf("local baseline sent %d messages", s.MessagesSent)
	}
	// Peer 0 cannot know the "food" tag at all.
	var tags []string
	l.Predict(0, topicDoc(2, 1).X, func(sc []metrics.ScoredTag, ok bool) {
		if !ok {
			t.Fatal("prediction failed")
		}
		for _, st := range sc {
			tags = append(tags, st.Tag)
		}
	})
	for _, tag := range tags {
		if tag == "food" {
			t.Error("local peer predicted a tag it never saw")
		}
	}
}

func TestLocalDeadPeerFails(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	l := NewLocal(net, []simnet.NodeID{0}, 1, 2)
	var docs []protocol.Doc
	for v := 0; v < 6; v++ {
		docs = append(docs, topicDoc(0, v))
		docs = append(docs, topicDoc(1, v))
	}
	l.SetDocs(0, docs)
	l.Fit()
	net.Kill(0)
	fired := false
	l.Predict(0, topicDoc(0, 0).X, func(_ []metrics.ScoredTag, ok bool) {
		fired = true
		if ok {
			t.Error("dead peer answered")
		}
	})
	if !fired {
		t.Fatal("callback not fired")
	}
}

func TestLocalRefine(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	l := NewLocal(net, []simnet.NodeID{0}, 1, 2)
	var docs []protocol.Doc
	for v := 0; v < 6; v++ {
		docs = append(docs, topicDoc(0, v), topicDoc(1, v))
	}
	l.SetDocs(0, docs)
	l.Fit()
	for v := 0; v < 4; v++ {
		l.Refine(0, protocol.Doc{
			X:    vector.FromMap(map[int32]float64{500 + int32(v): 1, 550: 1}).Normalize(),
			Tags: []string{"hobby"},
		})
	}
	found := false
	l.Predict(0, vector.FromMap(map[int32]float64{550: 1}).Normalize(), func(sc []metrics.ScoredTag, ok bool) {
		if !ok {
			return
		}
		_, found = protocol.ScoreMap(sc)["hobby"]
	})
	if !found {
		t.Error("refined tag not learned locally")
	}
}

func TestNames(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	c := NewCentralized(net, []simnet.NodeID{0}, CentralizedConfig{})
	l := NewLocal(net, []simnet.NodeID{1}, 0, 0)
	if c.Name() != "Centralized" || l.Name() != "Local-only" {
		t.Error("bad names")
	}
}
