package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errNoAnswer stands in for doctagger.ErrNoAnswer as the wrapped cause of a
// failed row.
var errNoAnswer = errors.New("no answer")

// fakeEngine tags every document "tag:<text>" (or "<prefix><text>" when
// prefix is set — distinguishable engine generations for swap tests),
// optionally sleeping per batch and failing configured texts the way
// AutoTagBatch does: nil row + first-failure error wrapping the cause.
type fakeEngine struct {
	delay   time.Duration
	prefix  string
	failOn  map[string]bool
	mu      sync.Mutex
	batches []int
}

func (f *fakeEngine) AutoTagBatch(texts []string) ([][]string, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, len(texts))
	f.mu.Unlock()
	prefix := f.prefix
	if prefix == "" {
		prefix = "tag:"
	}
	out := make([][]string, len(texts))
	var err error
	for i, t := range texts {
		if f.failOn[t] {
			if err == nil {
				err = fmt.Errorf("engine: document %d: %w", i, errNoAnswer)
			}
			continue
		}
		out[i] = []string{prefix + t}
	}
	return out, err
}

func (f *fakeEngine) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{MaxBatch: -1},
		{MaxQueue: -3},
	} {
		if _, err := New(cfg, &fakeEngine{}); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with no engines accepted")
	}
}

// TestBatchingUnderConcurrency is the "batches form under contention" half
// of the flush policy: 64 concurrent clients against a briefly-busy engine
// must coalesce — mean batch size above 1 — while every client still
// receives exactly its own document's answer.
func TestBatchingUnderConcurrency(t *testing.T) {
	eng := &fakeEngine{delay: time.Millisecond}
	s, err := New(Config{MaxBatch: 16}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients, perClient = 64, 4
	var wg sync.WaitGroup
	var mismatches atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				text := fmt.Sprintf("doc-%d-%d", c, r)
				tags, err := s.Tag(context.Background(), text)
				if err != nil || len(tags) != 1 || tags[0] != "tag:"+text {
					mismatches.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d requests got wrong or failed answers", n)
	}
	st := s.Stats()
	if st.Requests != clients*perClient || st.Served != clients*perClient {
		t.Errorf("requests %d served %d, want %d", st.Requests, st.Served, clients*perClient)
	}
	if st.MeanBatchSize <= 1 {
		t.Errorf("mean batch size %.2f, want > 1 (batches: %v)", st.MeanBatchSize, eng.batchSizes())
	}
	if st.MaxBatchSeen > 16 {
		t.Errorf("batch of %d exceeded MaxBatch", st.MaxBatchSeen)
	}
	var histTotal int64
	for _, b := range st.BatchSizeHist {
		histTotal += b.Count
	}
	if histTotal != st.Batches {
		t.Errorf("histogram sums to %d, want %d batches", histTotal, st.Batches)
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("unexpected errors/rejections: %+v", st)
	}
}

// TestBusyEngineBatchesTheBacklog is the mirror of the lone-request case:
// requests that arrive while the only engine is busy are not dispatched one
// by one — they ride together in the engine's next call.
func TestBusyEngineBatchesTheBacklog(t *testing.T) {
	eng := newGatedEngine()
	s, err := New(Config{MaxBatch: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	submit := func(text string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Tag(context.Background(), text); err != nil {
				t.Errorf("Tag(%q): %v", text, err)
			}
		}()
	}
	submit("a")
	if batch := <-eng.entered; fmt.Sprint(batch) != "[a]" {
		t.Fatalf("first batch = %v, want [a] alone", batch)
	}
	// Requests counts a submission once it sits in the queue, so waiting
	// on it between submissions fixes the queue order.
	for i, text := range []string{"b", "c", "d"} {
		submit(text)
		waitStats(t, s, text+" to queue", func(st Stats) bool { return st.Requests == int64(i+2) })
	}
	close(eng.release)
	if batch := <-eng.entered; fmt.Sprint(batch) != "[b c d]" {
		t.Errorf("backlog batch = %v, want [b c d]", batch)
	}
	wg.Wait()
}

// TestLoneRequestSkipsTheWait: with every engine idle a request is handed
// over at once — sequential lone requests accumulate no queue wait to speak
// of (a flush timer of even 1 ms would put the mean at >= 1 ms).
func TestLoneRequestSkipsTheWait(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{MaxBatch: 64}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		tags, err := s.Tag(context.Background(), fmt.Sprintf("solo-%d", i))
		if err != nil || len(tags) != 1 {
			t.Fatalf("Tag = %v, %v", tags, err)
		}
	}
	if sizes := eng.batchSizes(); len(sizes) != n || slices.Max(sizes) != 1 {
		t.Errorf("batch sizes = %v, want %d batches of 1", sizes, n)
	}
	if st := s.Stats(); st.MeanQueueWait <= 0 || st.MeanQueueWait >= 500*time.Microsecond {
		t.Errorf("mean queue wait %v, want within (0, 500µs)", st.MeanQueueWait)
	}
}

// TestStatsCountBeforeReply: the counters are updated before a batch's
// first reply, so a Stats read right behind Tag already includes that
// request and the accounting identity holds on every read.
func TestStatsCountBeforeReply(t *testing.T) {
	s, err := New(Config{}, &fakeEngine{}, &fakeEngine{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int64(1); i <= 10000; i++ {
		if _, err := s.Tag(context.Background(), fmt.Sprintf("doc-%d", i)); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Served != i || st.Requests != i || st.Batches != i {
			t.Fatalf("after Tag %d: served %d requests %d batches %d", i, st.Served, st.Requests, st.Batches)
		}
		if st.Issued != i { // = Served + CacheHits + Coalesced + Deduped
			t.Fatalf("after Tag %d: issued %d in %+v", i, st.Issued, st)
		}
	}
}

// TestPerRequestErrorPropagation: a failed document inside a batch must
// fail only its own request, with the unwrapped cause, while its batch
// mates succeed.
func TestPerRequestErrorPropagation(t *testing.T) {
	eng := &fakeEngine{failOn: map[string]bool{"bad-1": true, "bad-2": true}}
	s, err := New(Config{MaxBatch: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := []string{"ok-1", "bad-1", "ok-2", "bad-2", "ok-3"}
	errs := make([]error, len(texts))
	results := make([][]string, len(texts))
	var wg sync.WaitGroup
	for i, text := range texts {
		wg.Add(1)
		go func(i int, text string) {
			defer wg.Done()
			results[i], errs[i] = s.Tag(context.Background(), text)
		}(i, text)
	}
	wg.Wait()
	for i, text := range texts {
		if text[:2] == "ok" {
			if errs[i] != nil || len(results[i]) != 1 {
				t.Errorf("%s: got %v, %v", text, results[i], errs[i])
			}
			continue
		}
		if !errors.Is(errs[i], errNoAnswer) {
			t.Errorf("%s: err = %v, want errNoAnswer", text, errs[i])
		}
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Errorf("Errors = %d, want 2", st.Errors)
	}
}

// TestCloseDrains: Close must answer everything already accepted, then
// refuse new work.
func TestCloseDrains(t *testing.T) {
	eng := &fakeEngine{delay: 2 * time.Millisecond}
	s, err := New(Config{MaxBatch: 4}, eng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Tag(context.Background(), fmt.Sprintf("d%d", i)); err == nil {
				ok.Add(1)
			}
		}(i)
	}
	// Let most submissions land in the queue, then close underneath them.
	time.Sleep(time.Millisecond)
	s.Close()
	wg.Wait()
	st := s.Stats()
	if st.Served != st.Requests {
		t.Errorf("drain incomplete: served %d of %d accepted", st.Served, st.Requests)
	}
	if got := ok.Load(); got != st.Requests {
		t.Errorf("%d successful answers for %d accepted requests", got, st.Requests)
	}
	if _, err := s.Tag(context.Background(), "late"); err != ErrClosed {
		t.Errorf("Tag after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestFailFastBackpressure: with a tiny queue and a slow engine, fail-fast
// submissions are rejected instead of blocking.
func TestFailFastBackpressure(t *testing.T) {
	eng := &fakeEngine{delay: 5 * time.Millisecond}
	s, err := New(Config{MaxBatch: 1, MaxQueue: 1, FailFast: true}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Tag(context.Background(), fmt.Sprintf("d%d", i)); errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Error("no request was rejected under overload")
	}
	if st := s.Stats(); st.Rejected != rejected.Load() {
		t.Errorf("Rejected = %d, want %d", st.Rejected, rejected.Load())
	}
}

// TestContextCancelAbandonsWait: a cancelled waiter returns promptly; its
// request still drains, so Close completes.
func TestContextCancelAbandonsWait(t *testing.T) {
	eng := &fakeEngine{delay: 20 * time.Millisecond}
	s, err := New(Config{MaxBatch: 2}, eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := s.Tag(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Tag = %v, want deadline exceeded", err)
	}
	s.Close()
	if st := s.Stats(); st.Served != 1 {
		t.Errorf("abandoned request not drained: %+v", st)
	}
}

// TestPreCancelledContextNeverEnqueues: a context that is already
// cancelled must be refused outright, in both blocking and fail-fast
// modes — an unlucky select must not slip the request into the queue
// (regression: the old submission select could pick the queue case even
// for a dead context, and the fail-fast path never looked at ctx at all).
func TestPreCancelledContextNeverEnqueues(t *testing.T) {
	for _, failFast := range []bool{false, true} {
		s, err := New(Config{MaxBatch: 4, FailFast: failFast}, &fakeEngine{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 32; i++ {
			if _, err := s.Tag(ctx, "doomed"); !errors.Is(err, context.Canceled) {
				t.Errorf("failFast=%v: Tag = %v, want context.Canceled", failFast, err)
			}
		}
		if _, err := s.TagBatch(ctx, []string{"a", "b"}); !errors.Is(err, context.Canceled) {
			t.Errorf("failFast=%v: TagBatch = %v, want context.Canceled", failFast, err)
		}
		st := s.Stats()
		if st.Requests != 0 || st.Served != 0 || st.Rejected != 0 {
			t.Errorf("failFast=%v: cancelled submissions leaked into the pipeline: %+v", failFast, st)
		}
		s.Close() // must not hang on phantom pending work
	}
}

// TestTagBatchMatchesTag: batch answers are identical to per-document Tag
// calls, in input order, and the documents reach the engine as pre-formed
// chunks of at most MaxBatch.
func TestTagBatchMatchesTag(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{MaxBatch: 4}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := make([]string, 10)
	for i := range texts {
		texts[i] = fmt.Sprintf("doc-%d", i)
	}
	got, err := s.TagBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(texts) {
		t.Fatalf("got %d rows for %d texts", len(got), len(texts))
	}
	for i, text := range texts {
		want, err := s.Tag(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Errorf("row %d: TagBatch %v != Tag %v", i, got[i], want)
		}
	}
	// The first three engine calls are the batch's pre-formed chunks:
	// 10 docs at MaxBatch 4 split 4+4+2, untouched by queue batching.
	sizes := eng.batchSizes()
	if len(sizes) < 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Errorf("chunk sizes = %v, want prefix [4 4 2]", sizes)
	}
	if empty, err := s.TagBatch(context.Background(), nil); empty != nil || err != nil {
		t.Errorf("TagBatch(nil) = %v, %v", empty, err)
	}
}

// TestTagBatchDeduplicates: duplicate texts in one batch are computed
// once — one engine row, every duplicate output row answered (the copies
// independently mutable), errors fanned to all duplicates too.
func TestTagBatchDeduplicates(t *testing.T) {
	eng := &fakeEngine{failOn: map[string]bool{"bad": true}}
	s, err := New(Config{MaxBatch: 16}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := []string{"dup", "other", "dup", "bad", "dup", "bad"}
	got, err := s.TagBatch(context.Background(), texts)
	if !errors.Is(err, errNoAnswer) {
		t.Fatalf("err = %v, want errNoAnswer cause", err)
	}
	for _, i := range []int{0, 2, 4} {
		if len(got[i]) != 1 || got[i][0] != "tag:dup" {
			t.Errorf("row %d = %v, want [tag:dup]", i, got[i])
		}
	}
	for _, i := range []int{3, 5} {
		if got[i] != nil {
			t.Errorf("row %d = %v for a failed duplicate", i, got[i])
		}
	}
	// Duplicate rows are independent copies.
	got[0][0] = "vandalized"
	if got[2][0] != "tag:dup" {
		t.Errorf("duplicate rows share a slice: %v", got[2])
	}
	// The engine saw each distinct text once: dup, other, bad.
	if sizes := eng.batchSizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Errorf("engine batches = %v, want [3]", sizes)
	}
	// Fan-out rows are visible in the counters: 3 distinct served, 3
	// answered by dedup, so served + deduped covers all 6 issued rows.
	if st := s.Stats(); st.Served != 3 || st.Deduped != 3 {
		t.Errorf("served %d deduped %d, want 3/3", st.Served, st.Deduped)
	}
}

// TestTagBatchErrorRows mirrors the AutoTagBatch contract: failed rows are
// nil, the rest answer, and the returned error names the first failed
// input's index with its unwrapped cause.
func TestTagBatchErrorRows(t *testing.T) {
	eng := &fakeEngine{failOn: map[string]bool{"bad-1": true, "bad-2": true}}
	s, err := New(Config{MaxBatch: 2}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := []string{"ok-0", "bad-1", "bad-2", "ok-3"}
	got, err := s.TagBatch(context.Background(), texts)
	if !errors.Is(err, errNoAnswer) {
		t.Fatalf("err = %v, want errNoAnswer cause", err)
	}
	if want := "serving: document 1:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("err = %v, want first failure at document 1", err)
	}
	for i, text := range texts {
		failed := eng.failOn[text]
		if failed && got[i] != nil {
			t.Errorf("row %d: got %v for a failed document", i, got[i])
		}
		if !failed && (len(got[i]) != 1 || got[i][0] != "tag:"+text) {
			t.Errorf("row %d: got %v", i, got[i])
		}
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Errorf("Errors = %d, want 2", st.Errors)
	}
}

// TestTagBatchUsesCache: rows with cached answers never reach the engine.
func TestTagBatchUsesCache(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{MaxBatch: 8, CacheSize: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	texts := []string{"a", "b", "c"}
	first, err := s.TagBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.TagBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("cached batch %v != uncached batch %v", second, first)
	}
	if sizes := eng.batchSizes(); len(sizes) != 1 {
		t.Errorf("engine saw %v batches, want 1 (second batch fully cached)", sizes)
	}
	if st := s.Stats(); st.CacheHits != int64(len(texts)) {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, len(texts))
	}
}

// TestSwapSwitchesGenerations: after Swap returns, every answer — cached
// or fresh — comes from the new engines; the retired generation has fully
// drained and the cache holds nothing it produced.
func TestSwapSwitchesGenerations(t *testing.T) {
	g1 := &fakeEngine{prefix: "g1:"}
	s, err := New(Config{MaxBatch: 4, CacheSize: 16}, g1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	tags, err := s.Tag(ctx, "doc")
	if err != nil || tags[0] != "g1:doc" {
		t.Fatalf("generation 1 answer = %v, %v", tags, err)
	}
	g2a, g2b := &fakeEngine{prefix: "g2:"}, &fakeEngine{prefix: "g2:"}
	if err := s.Swap(g2a, g2b); err != nil {
		t.Fatal(err)
	}
	// "doc" was cached under generation 1; the flush on swap must force a
	// fresh answer from generation 2.
	tags, err = s.Tag(ctx, "doc")
	if err != nil || tags[0] != "g2:doc" {
		t.Fatalf("post-swap answer = %v, %v (stale generation served?)", tags, err)
	}
	st := s.Stats()
	if st.Generation != 2 || st.Shards != 2 {
		t.Errorf("generation %d shards %d, want 2/2", st.Generation, st.Shards)
	}
	if len(g1.batchSizes()) != 1 {
		t.Errorf("retired engine saw %v batches, want exactly 1", g1.batchSizes())
	}
	if err := s.Swap(); err == nil {
		t.Error("Swap with no engines accepted")
	}
}

// TestSwapUnderLoad is the refresh acceptance test: 64 clients hammer the
// pool across two generation swaps; not one request may be dropped or
// fail, every answer must belong to a live generation, and once a Swap
// has returned the old generation must never answer again. Run with -race.
func TestSwapUnderLoad(t *testing.T) {
	gen1 := []Engine{&fakeEngine{prefix: "g1:", delay: time.Millisecond}, &fakeEngine{prefix: "g1:", delay: time.Millisecond}}
	s, err := New(Config{MaxBatch: 8, CacheSize: 32}, gen1...)
	if err != nil {
		t.Fatal(err)
	}
	const clients, keys = 64, 8
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
				text := fmt.Sprintf("doc-%d", (c+r)%keys)
				issued.Add(1)
				tags, err := s.Tag(context.Background(), text)
				if err != nil || len(tags) != 1 {
					t.Errorf("client %d: Tag = %v, %v", c, tags, err)
					return
				}
				if want1, want2, want3 := "g1:"+text, "g2:"+text, "g3:"+text; tags[0] != want1 && tags[0] != want2 && tags[0] != want3 {
					t.Errorf("client %d: answer %q from no known generation", c, tags[0])
					return
				}
				answered.Add(1)
			}
		}(c)
	}
	for _, prefix := range []string{"g2:", "g3:"} {
		time.Sleep(5 * time.Millisecond)
		next := []Engine{&fakeEngine{prefix: prefix, delay: time.Millisecond}, &fakeEngine{prefix: prefix, delay: time.Millisecond}}
		if err := s.Swap(next...); err != nil {
			t.Fatal(err)
		}
		// The swap has completed and the cache flushed: the very next
		// answer for any key must come from the new generation.
		tags, err := s.Tag(context.Background(), "probe-"+prefix)
		if err != nil || tags[0] != prefix+"probe-"+prefix {
			t.Fatalf("probe after swap to %q = %v, %v", prefix, tags, err)
		}
	}
	close(stop)
	wg.Wait()
	s.Close()
	st := s.Stats()
	if got := st.Served + st.CacheHits + st.Coalesced; got != issued.Load()+2 { // +2 probes
		t.Errorf("served %d + hits %d + coalesced %d != issued %d: requests dropped", st.Served, st.CacheHits, st.Coalesced, issued.Load()+2)
	}
	if answered.Load() != issued.Load() {
		t.Errorf("answered %d of %d issued", answered.Load(), issued.Load())
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d across swaps", st.Errors)
	}
	if st.Generation != 3 {
		t.Errorf("generation = %d, want 3", st.Generation)
	}
}

// TestSwapAfterClose: a closed server refuses new generations and cleans
// up the engines it was offered.
func TestSwapAfterClose(t *testing.T) {
	s, err := New(Config{MaxBatch: 2}, &fakeEngine{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Swap(&fakeEngine{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Swap after Close = %v, want ErrClosed", err)
	}
}

// TestTagBatchCancelledMidSubmission: cancelling while chunks are being
// submitted returns ctx.Err and leaves nothing undrained — Close must not
// hang on phantom pending work.
func TestTagBatchCancelledMidSubmission(t *testing.T) {
	eng := &fakeEngine{delay: 5 * time.Millisecond}
	s, err := New(Config{MaxBatch: 2}, eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("doc-%d", i)
	}
	if _, err := s.TagBatch(ctx, texts); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("TagBatch = %v, want deadline exceeded", err)
	}
	s.Close() // drains whatever was submitted; hangs if accounting leaked
	st := s.Stats()
	if st.Served != st.Requests {
		t.Errorf("drain incomplete after cancel: served %d of %d accepted", st.Served, st.Requests)
	}
}

// TestShardPoolParallelism: with several engines, batches run concurrently
// across shards; every engine still sees strictly serial calls (the fake
// engine's slice append would race otherwise under -race).
func TestShardPoolParallelism(t *testing.T) {
	engines := []*fakeEngine{{delay: time.Millisecond}, {delay: time.Millisecond}, {delay: time.Millisecond}}
	s, err := New(Config{MaxBatch: 4},
		engines[0], engines[1], engines[2])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Tag(context.Background(), fmt.Sprintf("d%d", i)); err != nil {
				t.Errorf("Tag: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	if st := s.Stats(); st.Shards != 3 || st.Served != 48 {
		t.Errorf("stats = %+v", st)
	}
	used := 0
	for _, e := range engines {
		if len(e.batchSizes()) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d of 3 shards saw traffic", used)
	}
}
