package doctagger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// labelEngine is a deterministic stand-in for an externally built engine
// (e.g. an ensemble over gossiped model sets): it answers every text with
// its generation label, so tests can see exactly which generation served.
type labelEngine struct {
	label string
	calls int // serial-use witness: the Server must never race this
}

func (e *labelEngine) AutoTagBatch(texts []string) ([][]string, error) {
	e.calls++
	out := make([][]string, len(texts))
	for i := range texts {
		out[i] = []string{e.label}
	}
	return out, nil
}

func TestNewEngineServerValidation(t *testing.T) {
	if _, err := NewEngineServer(ServerConfig{}); err == nil {
		t.Error("no engines accepted")
	}
	if _, err := NewEngineServer(ServerConfig{}, nil); err == nil {
		t.Error("nil engine accepted")
	}
	e := &labelEngine{label: "v1"}
	if _, err := NewEngineServer(ServerConfig{}, e, e); err == nil {
		t.Error("duplicate engine accepted")
	}
	// A nil *Tagger is a non-nil Engine; it is still refused.
	if _, err := NewEngineServer(ServerConfig{}, (*Tagger)(nil)); err == nil {
		t.Error("nil *Tagger engine accepted")
	}
	untrained, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineServer(ServerConfig{}, untrained); err == nil {
		t.Error("untrained tagger engine accepted")
	}
	srv, err := NewEngineServer(ServerConfig{}, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SwapEngines(untrained); err == nil {
		t.Error("SwapEngines accepted an untrained tagger")
	}
	if err := srv.SwapEngines((*Tagger)(nil)); err == nil {
		t.Error("SwapEngines accepted a nil *Tagger")
	}
	if st := srv.Stats(); st.Generation != 1 {
		t.Errorf("a refused generation was installed: generation %d", st.Generation)
	}
}

// TestEngineServerSwapsGenerations drives a generic-engine server through
// a live SwapEngines: answers flip from the old generation's to the new
// one's, nothing is dropped, installing an already-serving engine is
// refused, Refresh (a tagger-only operation) is refused, and the serving
// accounting identity Issued = Served + CacheHits + Coalesced + Deduped
// holds against a client-side count of rows asked for.
func TestEngineServerSwapsGenerations(t *testing.T) {
	srv, err := NewEngineServer(ServerConfig{MaxBatch: 4, CacheSize: 64},
		&labelEngine{label: "v1"}, &labelEngine{label: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	var issued int64
	var mu sync.Mutex
	ask := func(text string) string {
		tags, err := srv.Tag(ctx, text)
		if err != nil {
			t.Errorf("Tag(%q): %v", text, err)
			return ""
		}
		mu.Lock()
		issued++
		mu.Unlock()
		return tags[0]
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if got := ask(fmt.Sprintf("doc-%d-%d", i, j)); got != "v1" {
					t.Errorf("generation 1 answered %q, want v1", got)
				}
			}
		}()
	}
	wg.Wait()

	v2 := []Engine{&labelEngine{label: "v2"}, &labelEngine{label: "v2"}}
	if err := srv.SwapEngines(v2...); err != nil {
		t.Fatal(err)
	}
	// The cache flushed with the generation: a text answered by v1 must be
	// re-answered by v2, not served stale.
	if got := ask("doc-0-0"); got != "v2" {
		t.Errorf("after swap, answered %q, want v2", got)
	}
	if err := srv.SwapEngines(v2[0], &labelEngine{label: "v3"}); err == nil {
		t.Error("engine already serving was accepted into a new generation")
	}
	if _, err := srv.Refresh(func(int) (*Tagger, error) { return buildTrained(t), nil }); err == nil {
		t.Error("Refresh succeeded on a generic engine generation")
	}

	st := srv.Stats()
	if st.Generation != 2 || st.Shards != 2 {
		t.Errorf("generation %d shards %d, want 2/2", st.Generation, st.Shards)
	}
	if st.Issued != st.Served+st.CacheHits+st.Coalesced+st.Deduped {
		t.Errorf("identity broken: Issued %d != Served %d + CacheHits %d + Coalesced %d + Deduped %d",
			st.Issued, st.Served, st.CacheHits, st.Coalesced, st.Deduped)
	}
	if st.Issued != issued {
		t.Errorf("Issued = %d, client asked for %d rows", st.Issued, issued)
	}
	if st.Network.Messages != 0 {
		t.Errorf("generic engines reported swarm traffic: %+v", st.Network)
	}
}

// TestSwapEnginesFromTaggerGeneration crosses the two worlds: a
// tagger-backed server swaps to generic engines (retiring the taggers and
// keeping their swarm traffic in Network) and then back to taggers, whose
// traffic counts again and which Refresh can rebuild once more.
func TestSwapEnginesFromTaggerGeneration(t *testing.T) {
	tg := buildTrained(t)
	srv, err := NewServer(ServerConfig{}, tg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.Tag(ctx, servingQueries[0]); err != nil {
		t.Fatal(err)
	}
	served := srv.Stats().Network
	if served.Messages == 0 {
		t.Fatal("tagger generation served without swarm traffic")
	}

	if err := srv.SwapEngines(&labelEngine{label: "gen2"}); err != nil {
		t.Fatal(err)
	}
	tags, err := srv.Tag(ctx, servingQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tags) != 1 || tags[0] != "gen2" {
		t.Errorf("after SwapEngines, answered %v, want [gen2]", tags)
	}
	// The retired tagger generation's traffic survives the transition.
	if got := srv.Stats().Network; got != served {
		t.Errorf("Network across a generic generation = %+v, want %+v", got, served)
	}

	// Back to taggers: the previously retired tagger is reusable.
	if err := srv.SwapEngines(tg); err != nil {
		t.Fatal(err)
	}
	want, err := tg.AutoTag(servingQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Tag(ctx, servingQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after swapping taggers back: %v, want %v", got, want)
	}
	if net := srv.Stats().Network; net.Messages <= served.Messages {
		t.Errorf("restored tagger generation's traffic not counted: %+v after %+v", net, served)
	}
	if _, err := srv.Refresh(func(int) (*Tagger, error) { return buildTrained(t), nil }); err != nil {
		t.Errorf("Refresh on restored tagger generation: %v", err)
	}
}

// TestTaggerGenerationThroughSwapEngines: however a tagger generation was
// installed, its traffic counts toward Network and Refresh can rebuild
// it — here on a server that began with a generic engine generation.
func TestTaggerGenerationThroughSwapEngines(t *testing.T) {
	srv, err := NewEngineServer(ServerConfig{}, &labelEngine{label: "gen1"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Refresh(func(int) (*Tagger, error) { return buildTrained(t), nil }); !errors.Is(err, ErrNotTaggerBacked) {
		t.Errorf("Refresh over a generic generation = %v, want ErrNotTaggerBacked", err)
	}
	if err := srv.SwapEngines(buildTrained(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Tag(context.Background(), servingQueries[0]); err != nil {
		t.Fatal(err)
	}
	if net := srv.Stats().Network; net.Messages == 0 || net.Bytes == 0 {
		t.Errorf("served tagger generation reported no swarm traffic: %+v", net)
	}
	gen, err := srv.Refresh(func(int) (*Tagger, error) { return buildTrained(t), nil })
	if err != nil {
		t.Fatalf("Refresh over a tagger generation installed by SwapEngines: %v", err)
	}
	if gen != 3 {
		t.Errorf("Refresh installed generation %d, want 3", gen)
	}
}
