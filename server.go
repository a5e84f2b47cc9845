package doctagger

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/serving"
)

// ServerConfig tunes the concurrent serving front-end: MaxBatch, MaxQueue,
// FailFast and CacheSize, documented on the aliased type. An idle engine
// takes a request at once; only while every engine is busy do requests
// batch, up to MaxBatch. The zero value batches up to 32 documents, bounds
// the queue at 8*MaxBatch, and disables the result cache.
// The cache is sound because queries never feed back into the models, and
// it flushes whenever SwapEngines or Refresh installs a new generation, so
// a cached answer never outlives the models that produced it.
type ServerConfig = serving.Config

// Engine is the batch classification back-end a Server shards over: one
// tag list per input text in input order; rows the engine cannot answer
// are nil, and the returned error wraps the underlying cause of the first
// failed row. Engines need not be safe for concurrent use — the Server
// drives each shard engine on exactly one goroutine. A *Tagger is an
// Engine, and so is any other implementation (for example an ensemble
// over gossiped model sets), which is how a distributed cluster installs
// model generations that did not come from a local Tagger.
type Engine = serving.Engine

// Serving errors, re-exported so callers need not import internal
// packages.
var (
	// ErrServerClosed is returned by Server.Tag after Close began.
	ErrServerClosed = serving.ErrClosed
	// ErrOverloaded is returned in fail-fast mode when the queue is full.
	ErrOverloaded = serving.ErrOverloaded
	// ErrNotTaggerBacked is returned by Server.Refresh when a shard of the
	// serving generation is not a *Tagger (a gossiped model generation,
	// say): there is no local tagger to rebuild. A state conflict, not a
	// fault — install the next generation with SwapEngines instead.
	ErrNotTaggerBacked = errors.New("doctagger: current generation is not tagger-backed; use SwapEngines")
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
	// Network aggregates the simulated traffic every *Tagger shard's swarm
	// generated while serving under this Server, retired generations
	// included (traffic from before a generation's install — training,
	// offline refinement — is not counted; see (*Tagger).Stats for a
	// swarm's own cumulative view). Other engines add nothing.
	Network NetworkStats
}

// Server is the concurrent serving front-end over a pool of engines,
// typically trained Taggers: many goroutines submit single documents, and
// the shards turn them into AutoTagBatch calls — one document for an idle
// shard, whatever queued meanwhile (up to MaxBatch) for a busy one.
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
// The pool is not frozen at build time: SwapEngines and Refresh install a
// new generation under live traffic — this is how (*Tagger).Refine reaches
// live serving. Refine a retired (or freshly built) generation offline,
// then swap it in; in-flight requests drain on the old models and the
// cache flushes.
type Server struct {
	inner *serving.Server

	refreshMu sync.Mutex // serializes generation installs (install)

	mu sync.Mutex // guards engines, baselines and retired
	// engines is the currently serving generation. baselines[i] is
	// engines[i]'s cumulative swarm traffic at the moment it was
	// installed; Stats counts only the excess, so Network is the traffic
	// generated while serving under this Server — uniformly across
	// generations, whether a tagger arrived fresh or is a swapped-back
	// retiree (whose earlier service is in retired already). retired
	// accumulates the while-installed traffic of swapped-out generations,
	// keeping Network cumulative without retaining dead generations.
	engines   []Engine
	baselines []NetworkStats
	retired   NetworkStats
}

// NewServer builds a Server over already-trained taggers, one shard per
// tagger: NewEngineServer with each tagger as an Engine.
func NewServer(cfg ServerConfig, taggers ...*Tagger) (*Server, error) {
	engines := make([]Engine, len(taggers))
	for i, tg := range taggers {
		engines[i] = tg
	}
	return NewEngineServer(cfg, engines...)
}

// NewEngineServer builds a Server over batch engines, one shard per
// engine: trained Taggers, or generations that did not come from local
// Taggers (a realnet ensemble over gossiped model sets, say). At least one
// engine is required; the engines must be non-nil, distinct instances
// (the Server assumes exclusive ownership of each) that answer
// interchangeably — see the Server doc. A *Tagger shard must be trained.
func NewEngineServer(cfg ServerConfig, engines ...Engine) (*Server, error) {
	if err := checkTaggers(engines); err != nil {
		return nil, err
	}
	baselines := trafficOf(engines)
	inner, err := serving.New(cfg, engines...)
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner, engines: slices.Clone(engines), baselines: baselines}, nil
}

// checkTaggers applies the one generation rule serving cannot: a *Tagger
// shard must be non-nil (a nil *Tagger is a non-nil Engine) and trained.
// serving.New and serving.Server.Swap check the rest.
func checkTaggers(engines []Engine) error {
	for i, e := range engines {
		if tg, ok := e.(*Tagger); ok {
			if tg == nil {
				return fmt.Errorf("doctagger: shard %d is a nil *Tagger", i)
			}
			if !tg.trained {
				return fmt.Errorf("doctagger: shard %d is not trained", i)
			}
		}
	}
	return nil
}

// trafficOf snapshots each engine's cumulative swarm traffic: a *Tagger's
// Stats, zero for any other engine (no simulated swarm behind it).
func trafficOf(engines []Engine) []NetworkStats {
	out := make([]NetworkStats, len(engines))
	for i, e := range engines {
		if tg, ok := e.(*Tagger); ok {
			out[i] = tg.Stats()
		}
	}
	return out
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
	engines, err := buildGeneration(shards, build)
	if err != nil {
		return nil, err
	}
	return NewEngineServer(cfg, engines...)
}

// buildGeneration builds one tagger per shard with build, wrapping any
// failure with its shard index.
func buildGeneration(shards int, build func(shard int) (*Tagger, error)) ([]Engine, error) {
	engines := make([]Engine, shards)
	for i := range engines {
		tg, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("doctagger: building shard %d: %w", i, err)
		}
		engines[i] = tg
	}
	return engines, nil
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

// SwapEngines installs engines as the new serving generation under live
// traffic: no accepted request is dropped — in-flight and queued requests
// are answered by whichever generation their batch dispatches to — and
// the result cache flushes, so no cached answer outlives the generation
// that produced it. SwapEngines returns once the old generation has
// drained, so its engines are the caller's again: refine retired taggers
// offline and swap them back in later. The engines follow NewEngineServer's
// rules and must not still be serving (each shard is driven by its own
// goroutine). A cluster node receiving a gossiped model generation wraps
// it per shard and swaps it in here.
func (s *Server) SwapEngines(engines ...Engine) error {
	_, err := s.install(func([]Engine) ([]Engine, error) { return engines, nil })
	return err
}

// Refresh rebuilds the pool with build (called with each shard index, like
// NewReplicatedServer) and swaps the new generation in under live traffic.
// This is the serving face of tag refinement: refinements applied to a
// fresh training round reach live queries here, without restarting the
// server or dropping a request. The retired taggers are discarded; build
// the next generation yourself and use SwapEngines to keep them.
// Concurrent Refresh calls serialize around the whole rebuild, not just
// the swap, so retrains never run concurrently; each queued caller still
// performs its own rebuild once the lock frees (back-to-back installs,
// not wasted parallel ones). Refresh reports the generation number it
// installed — read it from the return value, not a later Stats snapshot,
// which a queued refresh may already have advanced. If a shard of the
// serving generation is not a *Tagger there is no tagger to rebuild:
// Refresh returns ErrNotTaggerBacked.
func (s *Server) Refresh(build func(shard int) (*Tagger, error)) (int64, error) {
	return s.install(func(live []Engine) ([]Engine, error) {
		for _, e := range live {
			if _, ok := e.(*Tagger); !ok {
				return nil, ErrNotTaggerBacked
			}
		}
		return buildGeneration(len(live), build)
	})
}

// install is the one generation-install path. Under refreshMu it asks
// next for the generation to follow the live one, swaps it in, and folds
// the outgoing generation's while-installed traffic into retired. It
// reports the generation number it installed, stable while refreshMu is
// held.
func (s *Server) install(next func(live []Engine) ([]Engine, error)) (int64, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.mu.Lock()
	live := s.engines
	s.mu.Unlock()
	engines, err := next(live)
	if err != nil {
		return 0, err
	}
	if err := checkTaggers(engines); err != nil {
		return 0, err
	}
	// Snapshot the incoming generation's baselines before it can serve a
	// single request (its shards start inside inner.Swap, which also waits
	// out the old generation's drain — traffic served during that window
	// must not disappear into the baseline).
	baselines := trafficOf(engines)
	//dmtvet:allow lockdiscipline refreshMu serializes generation changes; its critical section is the drain itself, and request paths never take it
	if err := s.inner.Swap(engines...); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.retired = s.networkLocked()
	s.engines = slices.Clone(engines)
	s.baselines = baselines
	s.mu.Unlock()
	return s.inner.Stats().Generation, nil
}

// networkLocked is the traffic served under this Server so far: retired
// plus the live generation's excess over its install baselines. The
// caller holds s.mu — the retirees' owner may refine them as soon as
// install returns, and reading their Stats on a stale snapshot would
// attribute that offline traffic here.
func (s *Server) networkLocked() NetworkStats {
	out := s.retired
	for i, ns := range trafficOf(s.engines) {
		out.Messages += ns.Messages - s.baselines[i].Messages
		out.Bytes += ns.Bytes - s.baselines[i].Bytes
	}
	return out
}

// Stats snapshots the serving counters and the aggregate simulated
// traffic the shards' swarms generated while serving (retired generations
// included). Safe to call while the server is running.
func (s *Server) Stats() ServerStats {
	out := ServerStats{Stats: s.inner.Stats()}
	s.mu.Lock()
	out.Network = s.networkLocked()
	s.mu.Unlock()
	return out
}

// Close drains and shuts down: new submissions fail with ErrServerClosed,
// every accepted request is answered first. Idempotent; concurrent calls
// wait for the first to finish.
func (s *Server) Close() { s.inner.Close() }
