package doctagger

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/serving"
)

// ServerConfig tunes the concurrent serving front-end: MaxBatch, MaxQueue,
// FailFast and CacheSize, documented on the aliased type. An idle engine
// takes a request at once; only while every engine is busy do requests
// batch, up to MaxBatch. The zero value batches up to 32 documents, bounds
// the queue at 8*MaxBatch, and disables the result cache.
// The cache is sound because queries never feed back into the models, and
// it flushes whenever Swap, SwapEngines or Refresh installs a new
// generation, so a cached answer never outlives the models that produced
// it.
type ServerConfig = serving.Config

// Engine is the batch classification back-end a Server shards over: one
// tag list per input text in input order; rows the engine cannot answer
// are nil, and the returned error wraps the underlying cause of the first
// failed row. Engines need not be safe for concurrent use — the Server
// drives each shard engine on exactly one goroutine. A *Tagger is an
// Engine; NewEngineServer and SwapEngines accept any other implementation
// (for example an ensemble over gossiped model sets), which is how a
// distributed cluster installs model generations that did not come from a
// local Tagger.
type Engine = serving.Engine

// Serving errors, re-exported so callers need not import internal
// packages.
var (
	// ErrServerClosed is returned by Server.Tag after Close began.
	ErrServerClosed = serving.ErrClosed
	// ErrOverloaded is returned in fail-fast mode when the queue is full.
	ErrOverloaded = serving.ErrOverloaded
	// ErrNotTaggerBacked is returned by Server.Refresh when the serving
	// generation came from NewEngineServer or SwapEngines (a gossiped model
	// generation, say): there are no local taggers to rebuild. A state
	// conflict, not a fault — install the next generation with Swap or
	// SwapEngines instead.
	ErrNotTaggerBacked = errors.New("doctagger: current generation is not tagger-backed; use Swap or SwapEngines")
)

// BatchBucket is one bin of the batch-size histogram: Count batches had a
// size <= Le (and above the previous bucket's bound); Le 0 means
// unbounded.
type BatchBucket = serving.BatchBucket

// ServerStats snapshots a Server's counters: the serving layer's request,
// batch, queue-wait and cache accounting (the embedded serving.Stats, whose
// fields promote — st.Served, st.Issued, ... — and marshal flat), plus the
// simulated swarms' aggregate traffic.
type ServerStats struct {
	serving.Stats
	// Network aggregates the simulated traffic every shard's swarm
	// generated while serving under this Server, retired generations
	// included (traffic from before a generation's install — training,
	// offline refinement — is not counted; see (*Tagger).Stats for a
	// swarm's own cumulative view).
	Network NetworkStats
}

// Server is the concurrent serving front-end over a pool of trained
// Taggers: many goroutines submit single documents, and the shards turn
// them into AutoTagBatch calls — one document for an idle shard, whatever
// queued meanwhile (up to MaxBatch) for a busy one.
// A Tagger alone is not safe for concurrent use; a Server is — each shard
// is driven by exactly one goroutine.
//
// Shards answer interchangeably, so they must be identically trained (same
// Config including Seed, same documents). Identically trained shards give
// byte-identical answers — queries never feed back into the models, and
// the term-frequency features of a document do not depend on what was
// vectorized before it — which is what makes the pool transparent: results
// equal serial single-document AutoTag calls on any one shard. The same
// property is what makes the optional result cache (ServerConfig.CacheSize)
// sound: within one generation, identical text means identical tags.
//
// The pool is not frozen at build time: Swap and Refresh install a new
// tagger generation under live traffic — this is how (*Tagger).Refine
// reaches live serving. Refine a retired (or freshly built) generation
// offline, then swap it in; in-flight requests drain on the old models and
// the cache flushes.
type Server struct {
	inner *serving.Server

	refreshMu sync.Mutex // serializes Swap/SwapEngines/Refresh

	mu sync.Mutex // guards engines, taggers, baselines and retired
	// engines is the currently serving generation, whatever built it; used
	// to refuse installing an engine that is already serving. taggers is
	// non-nil only when the generation came from NewServer/Swap/Refresh —
	// generic engine generations (NewEngineServer, SwapEngines) have no
	// swarm traffic to aggregate, so Stats' Network covers tagger
	// generations only.
	engines []Engine
	taggers []*Tagger
	// baselines[i] is taggers[i]'s cumulative swarm traffic at the moment
	// it was installed; Stats counts only the excess, so Network is the
	// traffic generated while serving under this Server — uniformly
	// across generations, whether a tagger arrived fresh or is a
	// swapped-back retiree (whose earlier service is in retired already).
	// retired accumulates the while-installed traffic of swapped-out
	// generations, keeping Network cumulative across refreshes without
	// retaining references to dead generations.
	baselines []NetworkStats
	retired   NetworkStats
}

// NewServer builds a Server over already-trained taggers, one shard per
// tagger. The taggers must be distinct instances (the Server assumes
// exclusive ownership of each) and should be identically trained; see the
// Server doc. At least one tagger is required.
func NewServer(cfg ServerConfig, taggers ...*Tagger) (*Server, error) {
	engines, err := poolEngines(taggers)
	if err != nil {
		return nil, err
	}
	inner, err := serving.New(cfg, engines...)
	if err != nil {
		return nil, err
	}
	return &Server{
		inner:     inner,
		engines:   engines,
		taggers:   append([]*Tagger(nil), taggers...),
		baselines: installBaselines(taggers),
	}, nil
}

// NewEngineServer builds a Server over arbitrary batch engines, one shard
// per engine — the generic face of NewServer for generations that did not
// come from local Taggers (a realnet ensemble over gossiped model sets,
// say). The engines must be distinct instances and must answer
// interchangeably; the Server assumes exclusive ownership of each. The
// serving semantics (batching, caching, dedup, Swap draining) are exactly
// those of a tagger-backed Server; only the Network traffic aggregation is
// absent, since generic engines have no simulated swarm behind them.
func NewEngineServer(cfg ServerConfig, engines ...Engine) (*Server, error) {
	if err := genericEngines(engines); err != nil {
		return nil, err
	}
	inner, err := serving.New(cfg, engines...)
	if err != nil {
		return nil, err
	}
	return &Server{
		inner:   inner,
		engines: append([]Engine(nil), engines...),
	}, nil
}

// genericEngines validates an engine generation: non-empty, non-nil,
// distinct.
func genericEngines(engines []Engine) error {
	if len(engines) == 0 {
		return errors.New("doctagger: a server pool needs at least one engine")
	}
	seen := make(map[Engine]bool, len(engines))
	for i, e := range engines {
		if e == nil {
			return fmt.Errorf("doctagger: shard %d is nil", i)
		}
		if seen[e] {
			return fmt.Errorf("doctagger: shard %d reuses another shard's engine", i)
		}
		seen[e] = true
	}
	return nil
}

// installBaselines snapshots each tagger's cumulative traffic at install
// time; only traffic beyond it counts toward the server's Network stats.
func installBaselines(taggers []*Tagger) []NetworkStats {
	baselines := make([]NetworkStats, len(taggers))
	for i, tg := range taggers {
		baselines[i] = tg.Stats()
	}
	return baselines
}

// poolEngines validates a tagger generation — non-empty, non-nil,
// distinct, trained — and views it as its engine slice.
func poolEngines(taggers []*Tagger) ([]Engine, error) {
	if len(taggers) == 0 {
		return nil, errors.New("doctagger: a server pool needs at least one tagger")
	}
	engines := make([]Engine, len(taggers))
	seen := make(map[*Tagger]bool, len(taggers))
	for i, tg := range taggers {
		if tg == nil {
			return nil, fmt.Errorf("doctagger: shard %d is nil", i)
		}
		if seen[tg] {
			return nil, fmt.Errorf("doctagger: shard %d reuses another shard's Tagger", i)
		}
		seen[tg] = true
		if !tg.trained {
			return nil, fmt.Errorf("doctagger: shard %d is not trained", i)
		}
		engines[i] = tg
	}
	return engines, nil
}

// NewReplicatedServer builds shards identical taggers with build (called
// with the shard index) and serves them as one pool. build must be
// deterministic — same Config, same Seed, same training documents for
// every shard — or the shards' answers will depend on which one handled a
// batch.
func NewReplicatedServer(shards int, cfg ServerConfig, build func(shard int) (*Tagger, error)) (*Server, error) {
	if shards < 1 {
		return nil, fmt.Errorf("doctagger: %d shards < 1", shards)
	}
	taggers, err := buildGeneration(shards, build)
	if err != nil {
		return nil, err
	}
	return NewServer(cfg, taggers...)
}

// buildGeneration builds one tagger per shard with build, wrapping any
// failure with its shard index.
func buildGeneration(shards int, build func(shard int) (*Tagger, error)) ([]*Tagger, error) {
	taggers := make([]*Tagger, shards)
	for i := range taggers {
		tg, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("doctagger: building shard %d: %w", i, err)
		}
		taggers[i] = tg
	}
	return taggers, nil
}

// Tag submits one document and blocks until the swarm answers, ctx is
// cancelled, or — in fail-fast mode — the queue is full. Safe for
// arbitrary concurrent use. An already-cancelled ctx never enqueues work.
func (s *Server) Tag(ctx context.Context, text string) ([]string, error) {
	return s.inner.Tag(ctx, text)
}

// TagBatch submits many documents at once: they reach the engine shards as
// pre-formed batches (chunked at MaxBatch) instead of passing through the
// per-request queue one by one. Answers are
// pinned identical to per-document Tag calls — one tag list per input in
// input order, unanswerable rows nil, the first failure reported as the
// error alongside the remaining results (the AutoTagBatch contract).
func (s *Server) TagBatch(ctx context.Context, texts []string) ([][]string, error) {
	return s.inner.TagBatch(ctx, texts)
}

// Swap installs taggers as the new serving generation under live traffic
// and returns the retired generation, fully drained and safe to reuse —
// refine it offline and swap it back in later. In-flight and queued
// requests are never dropped: they are answered by whichever generation
// their batch dispatches to, and the result cache flushes so no cached
// answer outlives its models. The new taggers are validated like
// NewServer's and must not still be serving (a tagger can be in at most
// one live generation, since each shard is driven by its own goroutine).
func (s *Server) Swap(taggers ...*Tagger) ([]*Tagger, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	return s.swapLocked(taggers)
}

// swapLocked is Swap's body; the caller holds refreshMu.
func (s *Server) swapLocked(taggers []*Tagger) ([]*Tagger, error) {
	engines, err := poolEngines(taggers)
	if err != nil {
		return nil, err
	}
	if err := s.checkNotServing(engines); err != nil {
		return nil, err
	}
	// Snapshot the incoming generation's baselines before it can serve a
	// single request (its shards start inside inner.Swap, which
	// also waits out the old generation's drain — traffic served during
	// that window must not disappear into the baseline).
	newBaselines := installBaselines(taggers)
	if err := s.inner.Swap(engines...); err != nil {
		return nil, err
	}
	s.mu.Lock()
	old := s.taggers
	s.retireLocked()
	s.engines = engines
	s.taggers = append([]*Tagger(nil), taggers...)
	s.baselines = newBaselines
	s.mu.Unlock()
	return old, nil
}

// SwapEngines installs arbitrary batch engines as the new serving
// generation under live traffic, with the same drain/flush guarantees as
// Swap: no accepted request is dropped and no cached answer outlives the
// generation that produced it. This is the install path for generations
// that did not come from local Taggers — a cluster node receiving a
// gossiped model generation wraps it per shard and swaps it in here. The
// engines are validated like NewEngineServer's and must not already be
// serving. A retiring tagger generation's swarm traffic stays in the
// Network stats; the retired taggers themselves are the caller's to keep.
func (s *Server) SwapEngines(engines ...Engine) error {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if err := genericEngines(engines); err != nil {
		return err
	}
	if err := s.checkNotServing(engines); err != nil {
		return err
	}
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	if err := s.inner.Swap(engines...); err != nil {
		return err
	}
	s.mu.Lock()
	s.retireLocked()
	s.engines = append([]Engine(nil), engines...)
	s.taggers, s.baselines = nil, nil
	s.mu.Unlock()
	return nil
}

// checkNotServing refuses engines already present in the live generation
// (each shard is driven by its own goroutine; an engine can serve in at
// most one generation at a time).
func (s *Server) checkNotServing(engines []Engine) error {
	s.mu.Lock()
	current := make(map[Engine]bool, len(s.engines))
	for _, e := range s.engines {
		current[e] = true
	}
	s.mu.Unlock()
	for i, e := range engines {
		if current[e] {
			return fmt.Errorf("doctagger: shard %d is still serving in the current generation", i)
		}
	}
	return nil
}

// retireLocked folds the outgoing tagger generation's while-installed
// swarm traffic into retired; a no-op for generic engine generations. The
// caller holds s.mu.
func (s *Server) retireLocked() {
	for i, tg := range s.taggers {
		ns := tg.Stats()
		s.retired.Messages += ns.Messages - s.baselines[i].Messages
		s.retired.Bytes += ns.Bytes - s.baselines[i].Bytes
	}
}

// Refresh rebuilds the pool with build (called with each shard index, like
// NewReplicatedServer) and swaps the new generation in under live traffic.
// This is the serving face of tag refinement: refinements applied to a
// fresh training round reach live queries here, without restarting the
// server or dropping a request. The retired taggers are discarded; use
// Swap directly to keep them. Concurrent Refresh calls serialize around
// the whole rebuild, not just the swap, so retrains never run
// concurrently; each queued caller still performs its own rebuild once
// the lock frees (back-to-back installs, not wasted parallel ones).
// Refresh reports the generation number it installed — read it from the
// return value, not a later Stats snapshot, which a queued refresh may
// already have advanced. A pool serving a generic engine generation has no
// taggers to rebuild: Refresh returns ErrNotTaggerBacked.
func (s *Server) Refresh(build func(shard int) (*Tagger, error)) (int64, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.mu.Lock()
	shards := len(s.taggers)
	s.mu.Unlock()
	if shards == 0 {
		return 0, ErrNotTaggerBacked
	}
	taggers, err := buildGeneration(shards, build)
	if err != nil {
		return 0, err
	}
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	if _, err := s.swapLocked(taggers); err != nil {
		return 0, err
	}
	// Stable while refreshMu is held: no other Swap/Refresh can advance
	// the generation underneath us.
	return s.inner.Stats().Generation, nil
}

// Stats snapshots the serving counters and the aggregate simulated
// traffic the shards' swarms generated while serving (retired generations
// included). Safe to call while the server is running.
func (s *Server) Stats() ServerStats {
	out := ServerStats{Stats: s.inner.Stats()}
	// Aggregate under the lock: a concurrent Swap retires taggers and
	// folds their traffic into retired, and the retirees' owner may
	// refine them immediately after — reading tg.Stats() on a stale
	// snapshot would attribute that offline traffic here. tg.Stats() is
	// a cheap counter read, so holding mu across the loop is fine.
	s.mu.Lock()
	out.Network = s.retired
	for i, tg := range s.taggers {
		ns := tg.Stats()
		out.Network.Messages += ns.Messages - s.baselines[i].Messages
		out.Network.Bytes += ns.Bytes - s.baselines[i].Bytes
	}
	s.mu.Unlock()
	return out
}

// Close drains and shuts down: new submissions fail with ErrServerClosed,
// every accepted request is answered first. Idempotent; concurrent calls
// wait for the first to finish.
func (s *Server) Close() { s.inner.Close() }
