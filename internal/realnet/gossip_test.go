package realnet

import (
	"errors"
	"math"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// fastMesh are the transport knobs cluster tests run with: quick retries,
// short quarantines, a tight gossip loop.
func fastMesh(seed int64, seeds ...string) Config {
	return Config{
		Seed:            seed,
		Seeds:           seeds,
		DialTimeout:     time.Second,
		MaxAttempts:     2,
		BackoffBase:     2 * time.Millisecond,
		BackoffMax:      10 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   100 * time.Millisecond,
		GossipInterval:  100 * time.Millisecond,
	}
}

// TestGenerationGossipConverges publishes a model generation on one node
// of a 3-node mesh and requires every node to converge on it: same
// (Seq, Origin), working models, OnGeneration fired exactly once per
// remote node per generation.
func TestGenerationGossipConverges(t *testing.T) {
	var fired [3]atomic.Int64
	nodes := make([]*Node, 3)
	var seeds []string
	for i := range nodes {
		cfg := fastMesh(int64(i+1), seeds...)
		i := i
		cfg.OnGeneration = func(gen Generation) { fired[i].Add(1) }
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nodes[i] = nd
		seeds = []string{nodes[0].Addr()}
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, "membership", func() bool { return len(nd.Peers()) >= 2 })
	}

	set, err := TrainModelSet(trainingTexts(0), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen, sum, err := nodes[0].PublishGeneration(set)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Seq != 1 || gen.Origin != nodes[0].Addr() {
		t.Fatalf("generation = %+v, want seq 1 origin %s", gen, nodes[0].Addr())
	}
	if !sum.AllReached() {
		t.Fatalf("broadcast failures on a healthy mesh: %v", sum.Failed)
	}
	for i, nd := range nodes {
		nd := nd
		waitFor(t, "generation convergence", func() bool {
			cur, ok := nd.CurrentGeneration()
			return ok && cur.Seq == gen.Seq && cur.Origin == gen.Origin
		})
		want := int64(1)
		if i == 0 {
			want = 0 // the publisher installs from the return value
		}
		waitFor(t, "callback count", func() bool { return fired[i].Load() == want })
	}

	// The gossiped sets answer identically everywhere: a decoded set and
	// the published one agree tag for tag, byte for byte.
	text := "guitar melody chord song album piano"
	var answers [][]string
	for _, nd := range nodes {
		cur, _ := nd.CurrentGeneration()
		e, err := NewEnsemble(0.5, 4, cur.Set)
		if err != nil {
			t.Fatal(err)
		}
		tags, err := e.AutoTagBatch([]string{text})
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, tags[0])
	}
	for i := 1; i < len(answers); i++ {
		if !reflect.DeepEqual(answers[0], answers[i]) {
			t.Errorf("node %d answers %v, node 0 answers %v", i, answers[i], answers[0])
		}
	}

	// A second publish from another node supersedes the first everywhere.
	set2, err := TrainModelSet(trainingTexts(1), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen2, _, err := nodes[1].PublishGeneration(set2)
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Seq != 2 {
		t.Fatalf("second generation seq = %d, want 2", gen2.Seq)
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, "second generation convergence", func() bool {
			cur, ok := nd.CurrentGeneration()
			return ok && cur.Seq == 2 && cur.Origin == nodes[1].Addr()
		})
	}
}

// TestGenerationReachesRestartedPeer kills a node after convergence,
// starts a fresh one in its place, and requires the fresh node to catch up
// on the current generation without any new publish — via the hello
// catch-up or the origin's periodic rebroadcast.
func TestGenerationReachesRestartedPeer(t *testing.T) {
	a, err := Start(fastMesh(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(fastMesh(2, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "membership", func() bool { return len(a.Peers()) >= 1 })

	set, err := TrainModelSet(trainingTexts(0), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := a.PublishGeneration(set)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b converged", func() bool {
		cur, ok := b.CurrentGeneration()
		return ok && cur.Seq == gen.Seq
	})

	// Kill b; a's rebroadcasts now fail and quarantine b's address.
	bAddr := b.Addr()
	b.Close()
	waitFor(t, "dead peer noticed", func() bool {
		st := a.Transport().Peers[bAddr]
		return st.Failures > 0
	})

	// A fresh node joins through a (new address, no state): it must pick
	// up the generation it never saw published.
	c, err := Start(fastMesh(3, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "restarted peer caught up", func() bool {
		cur, ok := c.CurrentGeneration()
		return ok && cur.Seq == gen.Seq && cur.Origin == gen.Origin
	})
}

// TestGenerationHealsPartition cuts one node off (every dial to and from
// it fails), publishes a generation meanwhile, then heals the partition
// and requires the cut-off node to converge via the origin's anti-entropy
// rebroadcast — including after its address was quarantined.
func TestGenerationHealsPartition(t *testing.T) {
	var partitioned atomic.Bool
	var victim atomic.Value // string; set once addresses are known
	victim.Store("")
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() && addr == victim.Load().(string) {
			return nil, errors.New("injected: partitioned")
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	nodes := make([]*Node, 3)
	var seeds []string
	for i := range nodes {
		cfg := fastMesh(int64(i+1), seeds...)
		cfg.Dial = dial
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nodes[i] = nd
		seeds = []string{nodes[0].Addr()}
	}
	for _, nd := range nodes {
		nd := nd
		waitFor(t, "membership", func() bool { return len(nd.Peers()) >= 2 })
	}
	victim.Store(nodes[2].Addr())
	partitioned.Store(true)

	set, err := TrainModelSet(trainingTexts(0), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen, sum, err := nodes[0].PublishGeneration(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, cut := sum.Failed[nodes[2].Addr()]; !cut {
		t.Fatalf("publish during partition reported %+v, want failure for %s", sum, nodes[2].Addr())
	}
	waitFor(t, "reachable node converged", func() bool {
		cur, ok := nodes[1].CurrentGeneration()
		return ok && cur.Seq == gen.Seq
	})
	if _, ok := nodes[2].CurrentGeneration(); ok {
		t.Fatal("partitioned node received the generation through the partition")
	}

	// Let the rebroadcasts fail long enough to quarantine the victim, then
	// heal: the next anti-entropy pass after the quarantine expires must
	// deliver the generation.
	waitFor(t, "victim quarantined", func() bool {
		return nodes[0].Transport().Peers[nodes[2].Addr()].Failures >= 2
	})
	partitioned.Store(false)
	waitFor(t, "partition healed, victim converged", func() bool {
		cur, ok := nodes[2].CurrentGeneration()
		return ok && cur.Seq == gen.Seq && cur.Origin == gen.Origin
	})
}

// TestGenerationEncodingRoundTrip pins the frame layout and its corrupt-
// input behavior.
func TestGenerationEncodingRoundTrip(t *testing.T) {
	set, err := TrainModelSet(trainingTexts(0), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := Generation{Seq: 42, Origin: "127.0.0.1:7001", Set: set}
	payload, err := encodeGeneration(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGeneration(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != g.Seq || got.Origin != g.Origin {
		t.Fatalf("round trip = (%d, %q), want (%d, %q)", got.Seq, got.Origin, g.Seq, g.Origin)
	}
	if !reflect.DeepEqual(got.Set.Accuracy, set.Accuracy) {
		t.Error("accuracies did not survive the round trip")
	}
	// Re-encoding is byte-identical (determinism contract).
	payload2, err := encodeGeneration(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(payload2) {
		t.Error("generation encoding is not deterministic")
	}
	for _, cut := range []int{1, 7, 9, len(payload) / 2, len(payload) - 1} {
		if _, err := decodeGeneration(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// ensembleReference is what an Ensemble must answer, computed the slow
// way: a materialized vector in the shared hashed feature space, then per
// tag LinearModel.Decision and PlattParams.Prob, dropping tags whose
// accuracy is not above chance, sorted by score.
func ensembleReference(set *ModelSet, text string) []metrics.ScoredTag {
	x := newHashedPreprocessor().Vectorize(text)
	var out []metrics.ScoredTag
	for tag, m := range set.Models {
		if set.Accuracy[tag] > 0.5 {
			out = append(out, metrics.ScoredTag{Tag: tag, Score: set.Platt[tag].Prob(m.Decision(x))})
		}
	}
	slices.SortFunc(out, protocol.ByScore)
	return out
}

// TestEnsembleMatchesReferenceVote pins what a serving shard answers: an
// Ensemble over a set returns exactly ensembleReference's suggestion
// cloud, bit for bit.
func TestEnsembleMatchesReferenceVote(t *testing.T) {
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(0.5, 4, set)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"guitar melody chord song",
		"flight hotel passport beach island",
		"piano concert symphony album",
	}
	for _, text := range texts {
		want := ensembleReference(set, text)
		if got := e.Suggest(text); len(want) == 0 || !reflect.DeepEqual(want, got) {
			t.Errorf("Suggest(%q): ensemble %v, reference %v", text, got, want)
		}
	}
	// Concurrent construction over a shared set must be race-clean
	// (ensureFused is a sync.Once) and batch answers must be per-row
	// non-nil.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewEnsemble(0.5, 4, set)
			if err != nil {
				t.Error(err)
				return
			}
			rows, err := e.AutoTagBatch(texts)
			if err != nil || len(rows) != len(texts) {
				t.Errorf("AutoTagBatch = %v, %v", rows, err)
				return
			}
			for _, row := range rows {
				if row == nil {
					t.Error("nil row in batch answer")
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnsembleDropsChanceTags: a tag whose cross-validated accuracy is
// not above 0.5 casts no vote, so neither Suggest nor AutoTagBatch ever
// names it — not even as the fallback best tag.
func TestEnsembleDropsChanceTags(t *testing.T) {
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const text, tag = "flight hotel passport beach island", "travel"
	full, err := NewEnsemble(0.5, 4, set)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := full.AutoTagBatch([]string{text}); !slices.Contains(rows[0], tag) {
		t.Fatalf("AutoTagBatch(%q) = %v without %q on the full set; the case tests nothing", text, rows[0], tag)
	}
	for _, acc := range []float64{0.5, 0.2} {
		chance := clone(set)
		chance.Accuracy[tag] = acc
		e, err := NewEnsemble(0.5, 4, chance)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Suggest(text)
		if want := ensembleReference(chance, text); len(want) == 0 || !reflect.DeepEqual(want, got) {
			t.Errorf("accuracy %v: Suggest = %v, reference %v", acc, got, want)
		}
		for _, st := range got {
			if st.Tag == tag {
				t.Errorf("accuracy %v: Suggest named %q: %v", acc, tag, got)
			}
		}
		rows, err := e.AutoTagBatch([]string{text})
		if err != nil || len(rows) != 1 || len(rows[0]) == 0 || slices.Contains(rows[0], tag) {
			t.Errorf("accuracy %v: AutoTagBatch = %v, %v; want a non-empty answer without %q", acc, rows, err, tag)
		}
	}
}

// TestEnsembleValidation pins constructor errors.
func TestEnsembleValidation(t *testing.T) {
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnsemble(0.5, 4, nil); err == nil {
		t.Error("ensemble over nil set accepted")
	}
	if _, err := NewEnsemble(-0.1, 4, set); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewEnsemble(1.5, 4, set); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewEnsemble(math.NaN(), 4, set); err == nil {
		t.Error("NaN threshold accepted")
	}
	if _, err := NewEnsemble(0.5, -1, set); err == nil {
		t.Error("negative maxTags accepted")
	}
}
