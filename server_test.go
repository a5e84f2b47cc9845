package doctagger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildTrained returns a trained 4-peer CEMPaR tagger over the shared test
// corpus; calling it repeatedly yields identically trained instances.
func buildTrained(t *testing.T) *Tagger {
	t.Helper()
	tg, err := New(Config{Protocol: ProtocolCEMPaR, Peers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	corpusFor(t, tg, 4)
	if err := tg.Train(); err != nil {
		t.Fatal(err)
	}
	return tg
}

// serialWant returns fmt-printed serial AutoTag answers for queries — the
// byte-identical yardstick every serving path is pinned against.
func serialWant(t *testing.T, queries []string) []string {
	t.Helper()
	serial := buildTrained(t)
	want := make([]string, len(queries))
	for i, q := range queries {
		tags, err := serial.AutoTag(q)
		if err != nil {
			t.Fatalf("serial AutoTag(%q): %v", q, err)
		}
		want[i] = fmt.Sprint(tags)
	}
	return want
}

var servingQueries = []string{
	"a new album with a soft piano melody",
	"booking a flight and a hotel for the island",
	"a bread recipe with yeast and flour",
	"drum track with a heavy bass rhythm",
	"a map of the city museum tour",
	"grill the steak with garlic sauce",
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("no taggers accepted")
	}
	if _, err := NewServer(ServerConfig{}, nil); err == nil {
		t.Error("nil tagger accepted")
	}
	untrained, err := New(Config{Peers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(ServerConfig{}, untrained); err == nil {
		t.Error("untrained tagger accepted")
	}
	trained := buildTrained(t)
	if _, err := NewServer(ServerConfig{}, trained, trained); err == nil {
		t.Error("duplicate tagger accepted")
	}
	if _, err := NewReplicatedServer(0, ServerConfig{}, nil); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewReplicatedServer(1, ServerConfig{}, func(int) (*Tagger, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Error("builder error swallowed")
	}
}

// TestServerMatchesSerialUnderLoad is the serving acceptance test: 64
// concurrent clients against a 2-shard pool must get exactly the answers
// serial single-document AutoTag calls give for the same inputs, and the
// serving counters must balance. (That batches form under contention is
// internal/serving's TestBatchingUnderConcurrency; two 30 µs local shards
// are rarely both busy.)
func TestServerMatchesSerialUnderLoad(t *testing.T) {
	queries := servingQueries
	want := serialWant(t, queries)

	srv, err := NewReplicatedServer(2, ServerConfig{MaxBatch: 16}, func(int) (*Tagger, error) {
		return buildTrained(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for r := 0; r < len(queries); r++ {
				i := (c + r) % len(queries)
				tags, err := srv.Tag(context.Background(), queries[i])
				if err != nil {
					errc <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if got := fmt.Sprint(tags); got != want[i] {
					errc <- fmt.Errorf("client %d: query %d: batched %v != serial %v", c, i, got, want[i])
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	total := int64(clients * len(queries))
	// Identical texts in flight coalesce (single-flight dedup), so the
	// books balance as issued = Requests + Coalesced = Served + Coalesced.
	// Whether any request coalesces here is up to the scheduler — a 30 µs
	// request is usually answered before its duplicate arrives — so the
	// count itself is not asserted; internal/serving's gated
	// TestSingleFlightDedup proves coalescing deterministically.
	if st.Requests+st.Coalesced != total || st.Served+st.Coalesced != total {
		t.Errorf("requests %d served %d coalesced %d, want %d issued", st.Requests, st.Served, st.Coalesced, total)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d", st.Errors)
	}
	if st.Network.Messages == 0 || st.Network.Bytes == 0 {
		t.Errorf("no swarm traffic aggregated: %+v", st.Network)
	}
	if st.Shards != 2 {
		t.Errorf("shards = %d", st.Shards)
	}

	srv.Close()
	if _, err := srv.Tag(context.Background(), "late"); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Tag after Close = %v, want ErrServerClosed", err)
	}
	if st := srv.Stats(); st.Served != st.Requests {
		t.Errorf("Close left work undone: %+v", st)
	}
}

// TestServerCacheMatchesSerial is the cache determinism acceptance test:
// with the result cache on, 64 concurrent clients replaying a small query
// set must get answers byte-identical to uncached serial AutoTag calls —
// hits and misses alike — while the cache visibly absorbs the repeats.
// Run with -race.
func TestServerCacheMatchesSerial(t *testing.T) {
	queries := servingQueries
	want := serialWant(t, queries)

	srv, err := NewReplicatedServer(2, ServerConfig{MaxBatch: 16, CacheSize: 64}, func(int) (*Tagger, error) {
		return buildTrained(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients, perClient = 64, 12
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for r := 0; r < perClient; r++ {
				i := (c + r) % len(queries)
				tags, err := srv.Tag(context.Background(), queries[i])
				if err != nil {
					errc <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				if got := fmt.Sprint(tags); got != want[i] {
					errc <- fmt.Errorf("client %d: query %d: cached serving %v != serial %v", c, i, got, want[i])
					return
				}
			}
			errc <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	total := int64(clients * perClient)
	if st.Served+st.CacheHits+st.Coalesced != total {
		t.Errorf("served %d + hits %d + coalesced %d != %d issued: requests lost", st.Served, st.CacheHits, st.Coalesced, total)
	}
	if st.CacheHits == 0 {
		t.Errorf("no cache hits replaying %d queries %d times: %+v", len(queries), total, st)
	}
	// The cache must absorb the bulk of the replayed load. (Concurrent
	// first requests for the same text can each miss — there is no
	// single-flight — so the swarm may see a given query more than once,
	// but only during the initial stampede.)
	if st.BatchedDocs*2 > total {
		t.Errorf("swarms processed %d of %d issued docs; cache absorbed too little", st.BatchedDocs, total)
	}
}

// TestServerTagBatchMatchesTag pins TagBatch to per-document Tag and to
// serial AutoTag: same inputs, same bytes, in input order, whether rows
// come from the dispatcher or the cache.
func TestServerTagBatchMatchesTag(t *testing.T) {
	queries := servingQueries
	want := serialWant(t, queries)
	srv, err := NewReplicatedServer(2, ServerConfig{MaxBatch: 4, CacheSize: 16}, func(int) (*Tagger, error) {
		return buildTrained(t), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Twice: the first pass misses everywhere, the second is all hits.
	for pass := 0; pass < 2; pass++ {
		got, err := srv.TagBatch(context.Background(), queries)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i := range queries {
			if fmt.Sprint(got[i]) != want[i] {
				t.Errorf("pass %d row %d: TagBatch %v != serial %v", pass, i, got[i], want[i])
			}
		}
	}
	for i, q := range queries {
		tags, err := srv.Tag(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tags) != want[i] {
			t.Errorf("row %d: Tag %v != serial %v", i, tags, want[i])
		}
	}
	if st := srv.Stats(); st.CacheHits == 0 {
		t.Errorf("second batch pass hit nothing: %+v", st)
	}
}

// TestServerRefreshUnderLoad is the live-refresh acceptance test: 64
// clients stream queries while Refresh retrains and swaps in a new tagger
// generation. Zero requests may be dropped or fail, answers stay pinned to
// serial AutoTag (the generations are identically trained), and the
// generation counter advances. Run with -race.
func TestServerRefreshUnderLoad(t *testing.T) {
	queries := servingQueries
	want := serialWant(t, queries)
	build := func(int) (*Tagger, error) { return buildTrained(t), nil }
	srv, err := NewReplicatedServer(2, ServerConfig{MaxBatch: 16, CacheSize: 64}, build)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 64
	stop := make(chan struct{})
	var issued, answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (c + r) % len(queries)
				issued.Add(1)
				tags, err := srv.Tag(context.Background(), queries[i])
				if err != nil {
					t.Errorf("client %d during refresh: %v", c, err)
					return
				}
				if got := fmt.Sprint(tags); got != want[i] {
					t.Errorf("client %d: query %d: %v != serial %v across refresh", c, i, got, want[i])
					return
				}
				answered.Add(1)
				// Mostly cache hits: yield so the concurrent retrain is
				// not starved on small machines. No check depends on
				// the length: it only paces the clients.
				time.Sleep(200 * time.Microsecond)
			}
		}(c)
	}
	gen, err := srv.Refresh(build)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Errorf("Refresh installed generation %d, want 2", gen)
	}
	close(stop)
	wg.Wait()
	if issued.Load() != answered.Load() {
		t.Errorf("answered %d of %d issued: requests dropped across Refresh", answered.Load(), issued.Load())
	}
	st := srv.Stats()
	if st.Generation != 2 {
		t.Errorf("generation = %d after Refresh, want 2", st.Generation)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d across Refresh", st.Errors)
	}
	if st.Served+st.CacheHits+st.Coalesced != issued.Load() {
		t.Errorf("served %d + hits %d + coalesced %d != %d issued", st.Served, st.CacheHits, st.Coalesced, issued.Load())
	}
}

// TestServerSwapReturnsRetiredGeneration: once SwapEngines returns, the
// old taggers are drained and the caller's again — the
// refine-offline-swap-back-in loop — while a tagger that is still serving
// is refused, and Network stays cumulative across generations.
func TestServerSwapReturnsRetiredGeneration(t *testing.T) {
	first := []Engine{buildTrained(t), buildTrained(t)}
	srv, err := NewEngineServer(ServerConfig{MaxBatch: 4}, first...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Tag(context.Background(), servingQueries[0]); err != nil {
		t.Fatal(err)
	}
	// A tagger of the live generation cannot join the next one.
	if err := srv.SwapEngines(first[0], buildTrained(t)); err == nil {
		t.Error("SwapEngines accepted a tagger that is still serving")
	}
	second := []Engine{buildTrained(t), buildTrained(t)}
	if err := srv.SwapEngines(second...); err != nil {
		t.Fatal(err)
	}
	// The retired taggers are drained: refining them offline is safe and
	// they can come back as a third generation.
	for _, e := range first {
		if err := e.(*Tagger).Refine(servingQueries[0], "music"); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SwapEngines(first...); err != nil {
		t.Fatalf("swapping the refined retirees back in: %v", err)
	}
	st := srv.Stats()
	if st.Generation != 3 {
		t.Errorf("generation = %d, want 3", st.Generation)
	}
	// Network traffic stays cumulative across retired generations.
	if st.Network.Messages == 0 {
		t.Errorf("retired generations' traffic lost: %+v", st.Network)
	}
	// Round-tripping generations with no traffic in between must leave
	// the cumulative counters exactly unchanged (regression: a retiree's
	// traffic used to be re-added on every swap-back).
	if err := srv.SwapEngines(second...); err != nil {
		t.Fatal(err)
	}
	if err := srv.SwapEngines(first...); err != nil {
		t.Fatal(err)
	}
	if net := srv.Stats().Network; net != st.Network {
		t.Errorf("idle generation round-trip inflated traffic: %+v -> %+v", st.Network, net)
	}
}
