package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheRejectsNegativeSize(t *testing.T) {
	if _, err := New(Config{CacheSize: -1}, &fakeEngine{}); err == nil {
		t.Error("negative CacheSize accepted")
	}
}

// TestCacheHitSkipsEngine: the second identical query must be answered
// from the cache — byte-identical to the first answer — without another
// engine call.
func TestCacheHitSkipsEngine(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{MaxBatch: 4, CacheSize: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.Tag(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Tag(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("cached answer %v != uncached answer %v", second, first)
	}
	if sizes := eng.batchSizes(); len(sizes) != 1 {
		t.Errorf("engine saw %v batches, want exactly 1 (hit must not re-dispatch)", sizes)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.Requests != 1 || st.Served != 1 {
		t.Errorf("hit leaked into the dispatcher counters: %+v", st)
	}
	if st.CacheEntries != 1 || st.CacheCapacity != 8 {
		t.Errorf("entries/capacity = %d/%d", st.CacheEntries, st.CacheCapacity)
	}
}

// TestCacheHitIsACopy: mutating an answer must not corrupt what later
// callers receive.
func TestCacheHitIsACopy(t *testing.T) {
	s, err := New(Config{MaxBatch: 1, CacheSize: 8}, &fakeEngine{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tag(context.Background(), "doc"); err != nil {
		t.Fatal(err)
	}
	tags, err := s.Tag(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	tags[0] = "vandalized"
	again, err := s.Tag(context.Background(), "doc")
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != "tag:doc" {
		t.Errorf("cache corrupted by caller mutation: %v", again)
	}
}

// TestCacheDoesNotCacheErrors: a failed document must be retried, not
// served a cached failure (or a cached nil masquerading as success).
func TestCacheDoesNotCacheErrors(t *testing.T) {
	eng := &fakeEngine{failOn: map[string]bool{"bad": true}}
	s, err := New(Config{MaxBatch: 1, CacheSize: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.Tag(context.Background(), "bad"); err == nil {
			t.Fatalf("attempt %d: error not propagated", i)
		}
	}
	if sizes := eng.batchSizes(); len(sizes) != 2 {
		t.Errorf("engine saw %v batches, want 2 (failures must not cache)", sizes)
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Errorf("a failure was served from cache: %+v", st)
	}
}

// TestCacheEviction: a cache bounded below the working set must evict LRU
// entries and count them.
func TestCacheEviction(t *testing.T) {
	s, err := New(Config{MaxBatch: 1, CacheSize: 2}, &fakeEngine{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, err := s.Tag(context.Background(), fmt.Sprintf("doc-%d", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheEvictions == 0 {
		t.Errorf("no evictions with capacity 2 and 3 distinct keys: %+v", st)
	}
	if st.CacheEntries > 2 {
		t.Errorf("cache holds %d entries, capacity 2", st.CacheEntries)
	}
}

// TestCacheConcurrentDeterminism is the cache acceptance test: 64 clients
// hammering a small key set must always receive the engine's answer for
// their own document — hit or miss — while the engine sees far fewer
// documents than were requested. Run with -race.
func TestCacheConcurrentDeterminism(t *testing.T) {
	eng := &fakeEngine{}
	s, err := New(Config{MaxBatch: 8, CacheSize: 64}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients, perClient, keys = 64, 16, 8
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				text := fmt.Sprintf("doc-%d", (c+r)%keys)
				tags, err := s.Tag(context.Background(), text)
				if err != nil || len(tags) != 1 || tags[0] != "tag:"+text {
					wrong.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d requests got wrong or failed answers", n)
	}
	st := s.Stats()
	total := int64(clients * perClient)
	if st.CacheHits+st.Served+st.Coalesced != total {
		t.Errorf("hits %d + served %d + coalesced %d != %d issued", st.CacheHits, st.Served, st.Coalesced, total)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits on an 8-key working set")
	}
	var docs int64
	for _, n := range eng.batchSizes() {
		docs += int64(n)
	}
	if docs >= total {
		t.Errorf("engine processed %d docs for %d requests; cache absorbed nothing", docs, total)
	}
}
