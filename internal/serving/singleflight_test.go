package serving

import (
	"context"
	"sync"
	"testing"
	"time"
)

// gatedEngine signals each batch's arrival on entered and holds it until
// release closes, so tests can deterministically pin what is in flight.
type gatedEngine struct {
	entered chan []string
	release chan struct{}
	mu      sync.Mutex
	rows    []string // every document row ever handed to the engine
}

func newGatedEngine() *gatedEngine {
	return &gatedEngine{
		entered: make(chan []string, 16),
		release: make(chan struct{}),
	}
}

func (e *gatedEngine) AutoTagBatch(texts []string) ([][]string, error) {
	e.entered <- append([]string(nil), texts...)
	<-e.release
	e.mu.Lock()
	e.rows = append(e.rows, texts...)
	e.mu.Unlock()
	out := make([][]string, len(texts))
	for i, t := range texts {
		out[i] = []string{"tag:" + t}
	}
	return out, nil
}

func (e *gatedEngine) rowCount(text string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.rows {
		if r == text {
			n++
		}
	}
	return n
}

// waitStats polls the server's counters until cond holds or the deadline
// expires.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond) // poll interval; only the deadline can fail the wait
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, s.Stats())
}

// TestSingleFlightDedup is the deterministic dedup acceptance test: N
// concurrent misses for one text must issue exactly one engine query. The
// leader's batch is held inside the engine while the followers arrive, so
// every follower is guaranteed to find the flight in progress.
func TestSingleFlightDedup(t *testing.T) {
	eng := newGatedEngine()
	s, err := New(Config{MaxBatch: 4}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const followers = 7
	results := make(chan []string, followers+1)
	errs := make(chan error, followers+1)
	tag := func() {
		tags, err := s.Tag(context.Background(), "dup")
		results <- tags
		errs <- err
	}
	go tag() // leader
	// The leader's query is now inside the engine, blocked on the gate.
	if batch := <-eng.entered; len(batch) != 1 || batch[0] != "dup" {
		t.Fatalf("leader batch = %v, want [dup]", batch)
	}
	for i := 0; i < followers; i++ {
		go tag()
	}
	// Every follower has joined the leader's flight: nothing else can
	// raise Coalesced.
	waitStats(t, s, "followers to coalesce", func(st Stats) bool { return st.Coalesced == followers })
	close(eng.release)

	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Tag: %v", err)
		}
		if tags := <-results; len(tags) != 1 || tags[0] != "tag:dup" {
			t.Errorf("tags = %v, want [tag:dup]", tags)
		}
	}
	if n := eng.rowCount("dup"); n != 1 {
		t.Errorf("engine saw %d rows for the text, want exactly 1", n)
	}
	st := s.Stats()
	if st.Requests != 1 || st.Served != 1 || st.Coalesced != followers {
		t.Errorf("requests %d served %d coalesced %d, want 1/1/%d",
			st.Requests, st.Served, st.Coalesced, followers)
	}
}

// TestSingleFlightNoSliceAliasing: the leader's returned slice, every
// follower's slice and the cache's copy must be independent — a caller
// mutating its result must not corrupt anyone else's.
func TestSingleFlightNoSliceAliasing(t *testing.T) {
	eng := newGatedEngine()
	s, err := New(Config{MaxBatch: 4, CacheSize: 8}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	leaderTags := make(chan []string, 1)
	go func() {
		tags, err := s.Tag(context.Background(), "dup")
		if err != nil {
			t.Error(err)
		}
		leaderTags <- tags
	}()
	<-eng.entered
	followerTags := make(chan []string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			tags, err := s.Tag(context.Background(), "dup")
			if err != nil {
				t.Error(err)
			}
			followerTags <- tags
		}()
	}
	waitStats(t, s, "followers to coalesce", func(st Stats) bool { return st.Coalesced == 2 })
	close(eng.release)
	lt := <-leaderTags
	lt[0] = "mutated-by-leader" // caller owns its slice
	f1, f2 := <-followerTags, <-followerTags
	if f1[0] != "tag:dup" || f2[0] != "tag:dup" {
		t.Fatalf("follower slices aliased the leader's: %v / %v", f1, f2)
	}
	f1[0] = "mutated-by-follower"
	if f2[0] != "tag:dup" {
		t.Fatalf("follower slices alias each other: %v", f2)
	}
	// The cached copy survives every mutation above.
	tags, err := s.Tag(context.Background(), "dup")
	if err != nil || tags[0] != "tag:dup" {
		t.Fatalf("cached answer corrupted: %v, %v", tags, err)
	}
}

// TestSingleFlightDistinctTexts: different texts never coalesce. Two
// engines behind one gate, so "a" and "b" can both be in flight at once.
func TestSingleFlightDistinctTexts(t *testing.T) {
	eng := newGatedEngine()
	s, err := New(Config{MaxBatch: 8}, eng, &gatedEngine{entered: eng.entered, release: eng.release})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go s.Tag(context.Background(), "a")
	go s.Tag(context.Background(), "b")
	seen := 0
	for seen < 2 {
		seen += len(<-eng.entered)
	}
	close(eng.release)
	waitStats(t, s, "both served", func(st Stats) bool { return st.Served == 2 })
	if st := s.Stats(); st.Coalesced != 0 || st.Requests != 2 {
		t.Errorf("requests %d coalesced %d, want 2/0", st.Requests, st.Coalesced)
	}
}

// TestSingleFlightFollowerSurvivesLeaderCancel: a leader that abandons its
// wait after submitting must not strand the followers — the in-flight
// result still reaches them (and the leader's accepted work is what
// answers, not a second query).
func TestSingleFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	eng := newGatedEngine()
	s, err := New(Config{MaxBatch: 4}, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Tag(leaderCtx, "dup")
		leaderErr <- err
	}()
	if batch := <-eng.entered; batch[0] != "dup" {
		t.Fatalf("unexpected batch %v", batch)
	}
	followerTags := make(chan []string, 1)
	followerErr := make(chan error, 1)
	go func() {
		tags, err := s.Tag(context.Background(), "dup")
		followerTags <- tags
		followerErr <- err
	}()
	waitStats(t, s, "follower to coalesce", func(st Stats) bool { return st.Coalesced == 1 })
	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("cancelled leader returned %v", err)
	}
	close(eng.release)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if tags := <-followerTags; len(tags) != 1 || tags[0] != "tag:dup" {
		t.Errorf("follower tags = %v, want [tag:dup]", tags)
	}
	if n := eng.rowCount("dup"); n != 1 {
		t.Errorf("engine saw %d rows, want 1", n)
	}
}
