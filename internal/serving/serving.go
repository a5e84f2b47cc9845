// Package serving is the concurrent serving front-end of the system: a
// thread-safe, work-conserving micro-batching front over a sharded pool of
// batch classification engines, with an optional request-level result cache
// and live engine-pool replacement.
//
// Concurrent callers submit single documents with Server.Tag (or many at
// once with Server.TagBatch) onto one bounded queue that the engine shards
// pull from: an idle engine takes a request the moment it arrives, and a
// batch grows (up to MaxBatch) only out of what queued while every engine
// was busy. Every engine is driven by exactly one goroutine, so engines
// themselves need no internal locking (a *doctagger.Tagger, which is not
// safe for concurrent use, plugs in directly via AutoTagBatch).
//
// Batching is how the pool absorbs heavy traffic: one AutoTagBatch call
// amortizes the swarm's query fan-out and network drain over many
// documents, and no request is ever held back to wait for company. The
// queue is bounded, giving natural backpressure: submitters block (or fail
// fast, when configured) instead of growing memory without limit. Close
// drains — every accepted request is answered before shutdown completes.
//
// With Config.CacheSize > 0 a sharded bounded LRU keyed on document text
// answers repeated queries without touching the queue at all. Caching
// is sound because queries never feed back into the models: identical text
// means identical tags for as long as one engine generation serves. The
// same soundness argument drives single-flight dedup, which is always on:
// concurrent Tag calls for identical text coalesce onto one in-flight
// engine query (Stats.Coalesced counts the riders).
//
// Swap installs a new engine generation under live traffic: new shard
// goroutines start pulling from the same queue, the old shards finish their
// in-flight batch and exit, and the cache flushes so no answer outlives the
// models that produced it. No accepted request is ever dropped by a Swap.
package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is the batch classification back-end a Server shards over —
// implemented by (*doctagger.Tagger).AutoTagBatch. The contract mirrors
// AutoTagBatch: one tag list per input text in input order; rows the engine
// cannot answer are nil, and the returned error wraps the underlying cause
// of the first failed row. Answered rows should be non-nil (an empty answer
// as an empty list): when the batch error is set, a nil row cannot be told
// apart from the failed one and is treated as failed. Engines need not be
// safe for concurrent use; the Server serializes all calls to one engine on
// a single goroutine. An engine must not retain texts: the shard reuses the
// slice for its next batch.
type Engine interface {
	AutoTagBatch(texts []string) ([][]string, error)
}

// Errors returned by Tag, TagBatch and Swap.
var (
	// ErrClosed is returned for requests submitted after Close began.
	ErrClosed = errors.New("serving: server is closed")
	// ErrOverloaded is returned in fail-fast mode when the queue is full.
	ErrOverloaded = errors.New("serving: request queue is full")
	// ErrNoResult is returned when the engine produced no row for a
	// document and reported no cause.
	ErrNoResult = errors.New("serving: engine returned no result")
)

// Config tunes the server. There is no flush delay to tune: an idle engine
// takes a request at once, and batches form only while every engine is
// busy.
type Config struct {
	// MaxBatch caps how many queued requests one engine call takes;
	// default 32.
	MaxBatch int
	// MaxQueue bounds the submission queue; default 8*MaxBatch. A full
	// queue blocks Tag (or rejects, with FailFast) — backpressure instead
	// of unbounded memory.
	MaxQueue int
	// FailFast makes Tag return ErrOverloaded immediately when the queue
	// is full instead of blocking until space frees up.
	FailFast bool
	// CacheSize bounds the request-level result cache (entries across all
	// cache shards); 0 disables caching. Repeated queries for the same
	// text are answered from the cache without entering the queue;
	// the cache flushes whenever Swap installs a new engine generation.
	CacheSize int
}

func (c *Config) defaults() error {
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serving: MaxBatch %d < 1", c.MaxBatch)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8 * c.MaxBatch
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("serving: MaxQueue %d < 1", c.MaxQueue)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("serving: negative CacheSize %d", c.CacheSize)
	}
	return nil
}

// BatchBucket is one bin of the batch-size histogram: the count of batches
// whose size was <= Le (and greater than the previous bucket's Le). The
// last bucket has Le 0, meaning unbounded.
type BatchBucket struct {
	Le    int
	Count int64
}

// histogram bucket upper bounds; 0 terminates as +inf.
var bucketBounds = [8]int{1, 2, 4, 8, 16, 32, 64, 0}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Shards is the engine pool size of the current generation.
	Shards int
	// Generation counts engine pools installed so far: 1 at New, +1 per
	// successful Swap.
	Generation int64
	// Requests counts submissions accepted into the queue (cache hits are
	// answered before the queue and counted in CacheHits instead).
	Requests int64
	// Issued is the total number of answer rows handed to callers, however
	// produced: Issued = Served + CacheHits + Coalesced + Deduped. This is
	// the serving accounting identity — clients that count the rows they
	// asked for can check it against any node's snapshot.
	Issued int64
	// Served counts completed requests, failed ones included.
	Served int64
	// Deduped counts TagBatch rows answered by intra-batch deduplication:
	// duplicate texts in one call are computed once and fanned out, so
	// rows issued = Served + CacheHits + Coalesced + Deduped.
	Deduped int64
	// Coalesced counts Tag calls answered by single-flight dedup: a miss
	// for a text already in flight waits for that query's result instead
	// of issuing its own. A follower whose context cancels mid-wait stays
	// counted (mirroring how a cancelled-after-submit request stays in
	// Served), so the issued = Served + CacheHits + Coalesced + Deduped
	// identity is exact in the absence of cancellations.
	Coalesced int64
	// Errors counts requests that completed with an error.
	Errors int64
	// Rejected counts fail-fast rejections (never enqueued).
	Rejected int64
	// Batches counts engine invocations; BatchedDocs sums their sizes, so
	// MeanBatchSize = BatchedDocs / Batches.
	Batches       int64
	BatchedDocs   int64
	MeanBatchSize float64
	// MaxBatchSeen is the largest batch dispatched so far.
	MaxBatchSeen int
	// BatchSizeHist bins batch sizes; see BatchBucket.
	BatchSizeHist []BatchBucket
	// QueueWait aggregates the time requests spent between submission and
	// the start of their batch's engine call.
	QueueWaitTotal time.Duration
	QueueWaitMax   time.Duration
	MeanQueueWait  time.Duration
	// Cache counters; all zero when CacheSize is 0. CacheEntries is the
	// current population, CacheCapacity the configured bound.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheEntries   int
	CacheCapacity  int
}

type result struct {
	tags []string
	err  error
	gen  int64 // engine generation that produced the answer
}

// flight is one in-flight engine query that concurrent identical misses
// coalesce onto (single-flight dedup): the first miss for a text becomes
// the leader and travels through the queue as usual; later Tag calls
// for the same text while the leader is outstanding just wait for its
// result. tags/err/gen are written once, before done closes.
type flight struct {
	done chan struct{}
	tags []string
	err  error
	gen  int64
}

type request struct {
	text     string
	enqueued time.Time
	ch       chan result // buffered(1): delivery never blocks a shard
}

// generation is one engine pool: one goroutine per engine, each pulling
// from the server's shared queue until stop closes. Only Swap and Close
// close stop, serialized by swapMu.
type generation struct {
	id      int64
	engines []Engine
	stop    chan struct{}
	workers sync.WaitGroup
}

// Server is the micro-batching front-end. All methods are safe for
// concurrent use.
type Server struct {
	cfg        Config
	queue      chan *request
	prebatched chan []*request // pre-formed TagBatch chunks, taken whole by a shard
	cache      *resultCache    // nil when CacheSize is 0

	// flightMu guards flights, the single-flight table of in-flight Tag
	// misses by text. Entries are removed when their leader's result
	// arrives; Swap discards the table (leaders still complete their
	// waiters) so a post-swap miss always starts a fresh flight on the
	// new generation.
	flightMu sync.Mutex
	flights  map[string]*flight

	// swapMu serializes Swap calls and excludes them against Close's
	// closed-flag flip, so Swap can never "succeed" on a server that has
	// already begun shutting down. It guards cur, the generation whose
	// shards are serving.
	swapMu sync.Mutex
	cur    *generation

	// closing mirrors closed for lock-free reads on the cache-hit fast
	// path (which takes no other server-wide lock).
	closing    atomic.Bool
	mu         sync.Mutex // guards closed, shards, generation and the counters
	closed     bool
	shards     int
	generation int64
	ctr        counters
	pending    sync.WaitGroup // accepted-but-unanswered requests
	done       chan struct{}  // closed when shutdown completes
}

type counters struct {
	requests, served, errors, rejected int64
	deduped, coalesced                 int64
	batches, batchedDocs               int64
	maxBatch                           int
	hist                               [len(bucketBounds)]int64
	waitTotal, waitMax                 time.Duration
}

// New starts a Server over the given engine pool, one goroutine per
// engine. At least one engine is required, and the engines must be
// non-nil, distinct instances; when callers need shard answers to be
// interchangeable (they usually do), the engines must also be identically
// trained.
func New(cfg Config, engines ...Engine) (*Server, error) {
	if err := checkEngines(engines, nil); err != nil {
		return nil, err
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *request, cfg.MaxQueue),
		prebatched: make(chan []*request),
		cache:      newResultCache(cfg.CacheSize),
		flights:    make(map[string]*flight),
		shards:     len(engines),
		generation: 1,
		done:       make(chan struct{}),
	}
	s.cur = s.newGeneration(1, engines)
	return s, nil
}

// checkEngines enforces the engine-generation rules: non-empty, non-nil,
// distinct, and — against live, the serving generation (nil at New) — not
// still serving, since each engine is driven by one goroutine.
func checkEngines(engines []Engine, live *generation) error {
	if len(engines) == 0 {
		return errors.New("serving: need at least one engine")
	}
	for i, e := range engines {
		switch {
		case e == nil:
			return fmt.Errorf("serving: engine %d is nil", i)
		case slices.Contains(engines[:i], e):
			return fmt.Errorf("serving: engine %d repeats an earlier engine", i)
		case live != nil && slices.Contains(live.engines, e):
			return fmt.Errorf("serving: engine %d is still serving", i)
		}
	}
	return nil
}

// newGeneration starts one shard goroutine per engine; they serve from the
// shared queue until the generation's stop channel closes.
func (s *Server) newGeneration(id int64, engines []Engine) *generation {
	g := &generation{id: id, engines: slices.Clone(engines), stop: make(chan struct{})}
	g.workers.Add(len(engines))
	for _, e := range engines {
		go s.serve(g, e)
	}
	return g
}

// errFlightAborted is the internal sentinel a flight carries when its
// leader gave up before submitting the query (context cancelled during a
// blocked enqueue); waiting followers re-enter Tag and race to lead a
// fresh flight.
var errFlightAborted = errors.New("serving: flight leader aborted before submitting")

// Tag submits one document and blocks until the swarm answers, the context
// is cancelled, or — in fail-fast mode — the queue is full. An
// already-cancelled context never enqueues work, in either mode. A context
// cancelled after submission abandons the wait but not the work: the
// request still flows through its batch (counted in Served) and its
// result still completes the flight below (and the cache), even though
// this caller no longer reads it.
//
// Concurrent Tag calls for identical text are single-flighted: the first
// miss (the leader) issues the swarm query; identical misses arriving
// while it is outstanding wait for the leader's result instead of issuing
// their own, and are counted in Stats.Coalesced. Dedup shares the cache's
// soundness argument — within one engine generation, identical text means
// identical tags — and like the cache it is generation-pure: Swap discards
// the in-flight table, so a miss after a swap always queries the new
// models. Leaders share server-wide failures (ErrClosed, ErrOverloaded,
// engine errors) with their followers; a leader cancelled before it could
// submit hands the flight back, and its followers transparently retry.
func (s *Server) Tag(ctx context.Context, text string) ([]string, error) {
	for {
		tags, err := s.tagOnce(ctx, text)
		if err == errFlightAborted {
			continue
		}
		return tags, err
	}
}

// tagOnce is one attempt of Tag: answer from cache, join an in-flight
// identical query, or lead a new one. It returns errFlightAborted only
// when a joined flight's leader aborted before submitting, in which case
// Tag retries.
func (s *Server) tagOnce(ctx context.Context, text string) ([]string, error) {
	// A pre-cancelled context must not win the submission select by
	// chance: refuse before touching the queue.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cache-hit fast path: no server-wide lock, no drain-set membership —
	// a hit answers immediately and owes Close nothing. The lock-free
	// closing check keeps the ErrClosed contract; the miss path re-checks
	// under mu before entering the drain set.
	if s.closing.Load() {
		return nil, ErrClosed
	}
	if s.cache != nil {
		if tags, ok := s.cache.get(text); ok {
			return tags, nil
		}
	}
	// Single-flight: join an identical in-flight miss, or register as the
	// leader. Registration happens before enqueueing, so once a leader's
	// request is visible in the counters every later identical miss is
	// guaranteed to coalesce.
	s.flightMu.Lock()
	if f := s.flights[text]; f != nil {
		s.flightMu.Unlock()
		s.count(func(c *counters) { c.coalesced++ })
		select {
		case <-f.done:
			if f.err == errFlightAborted {
				// The leader never submitted; this join served nothing.
				// Uncount it — the retry will count once wherever it
				// lands (as a fresh leader in Requests, or as a
				// follower of a live flight).
				s.count(func(c *counters) { c.coalesced-- })
				return nil, errFlightAborted
			}
			if f.err != nil {
				return nil, f.err
			}
			// Followers get their own copy so no caller can mutate
			// another waiter's slice.
			return slices.Clone(f.tags), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[text] = f
	s.flightMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finishFlight(text, f, result{err: ErrClosed})
		return nil, ErrClosed
	}
	// Registering under the lock pairs with Close: once closed is set, no
	// new request can join the drain set.
	s.pending.Add(1)
	s.mu.Unlock()
	req := &request{text: text, enqueued: time.Now(), ch: make(chan result, 1)}
	if s.cfg.FailFast {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.pending.Done()
			s.abortFlight(text, f)
			return nil, ctx.Err()
		default:
			s.pending.Done()
			s.count(func(c *counters) { c.rejected++ })
			s.finishFlight(text, f, result{err: ErrOverloaded})
			return nil, ErrOverloaded
		}
	} else {
		select {
		case s.queue <- req:
		case <-ctx.Done():
			s.pending.Done()
			s.abortFlight(text, f)
			return nil, ctx.Err()
		}
	}
	s.count(func(c *counters) { c.requests++ })
	select {
	case r := <-req.ch:
		s.settleFlight(text, f, r)
		return r.tags, r.err
	case <-ctx.Done():
		// The accepted work still completes; hand flight (and cache)
		// settlement to a helper so followers are not stranded.
		go func() {
			s.settleFlight(text, f, <-req.ch)
		}()
		return nil, ctx.Err()
	}
}

// settleFlight records a leader's engine result: successful answers enter
// the cache first (so a new request races toward a hit, not a duplicate
// flight), then the flight completes and leaves the table.
func (s *Server) settleFlight(text string, f *flight, r result) {
	if r.err == nil && s.cache != nil {
		s.cache.add(text, r.tags, r.gen)
	}
	s.finishFlight(text, f, r)
}

// finishFlight publishes r to f's waiters and removes f from the flight
// table (unless a Swap already replaced the table). The flight keeps its
// own copy of the tags: the leader's caller receives (and may mutate) the
// engine's slice, so followers must never alias it.
func (s *Server) finishFlight(text string, f *flight, r result) {
	f.tags, f.err, f.gen = slices.Clone(r.tags), r.err, r.gen
	s.flightMu.Lock()
	if s.flights[text] == f {
		delete(s.flights, text)
	}
	s.flightMu.Unlock()
	close(f.done)
}

// abortFlight withdraws a flight whose leader could not submit its query;
// followers retry against a fresh flight.
func (s *Server) abortFlight(text string, f *flight) {
	s.finishFlight(text, f, result{err: errFlightAborted})
}

// TagBatch submits many documents at once. Unlike len(texts) separate Tag
// calls, the documents skip the per-request queue and reach the engine
// shards as pre-formed batches (chunked at MaxBatch), so a bulk caller pays
// one hand-off per chunk and no queue contention. Answers are identical to
// per-document Tag calls: one tag list per input in input order, rows the
// swarm cannot answer nil, with the first failure reported as the error
// alongside the remaining results (mirroring AutoTagBatch). Documents with
// cached answers are served from the cache, duplicate texts are computed
// once and fanned out to every duplicate row; only distinct misses reach
// the engines. Inside an engine shard each chunk is a loop over single
// documents through the shard's reused scratch, whatever the protocol
// (see doctagger.AutoTagBatch and realnet.Ensemble.AutoTagBatch), so a
// chunk's intermediate state is O(1) regardless of its size.
//
// Submission blocks until an engine shard has taken every chunk or ctx is
// cancelled; TagBatch does not fail fast. As with Tag, cancelling after
// submission abandons the wait, not the accepted work.
func (s *Server) TagBatch(ctx context.Context, texts []string) ([][]string, error) {
	if len(texts) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closing.Load() {
		return nil, ErrClosed
	}
	out := make([][]string, len(texts))
	errs := make([]error, len(texts))
	// Resolve cache hits first; only the misses need to join the drain
	// set and travel to the engines. Duplicate texts collapse to
	// one request each — identical text means identical tags within a
	// generation, so one computed answer fans out to every duplicate row.
	var misses []*request
	missIdx := make([][]int, 0, len(texts)) // output rows per miss
	byText := make(map[string]int, len(texts))
	var deduped int64
	now := time.Now()
	for i, text := range texts {
		if j, ok := byText[text]; ok {
			missIdx[j] = append(missIdx[j], i)
			deduped++
			continue
		}
		if s.cache != nil {
			if tags, ok := s.cache.get(text); ok {
				out[i] = tags
				continue
			}
		}
		byText[text] = len(misses)
		misses = append(misses, &request{text: text, enqueued: now, ch: make(chan result, 1)})
		missIdx = append(missIdx, []int{i})
	}
	if len(misses) == 0 {
		return out, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.pending.Add(len(misses))
	s.mu.Unlock()
	submitted := 0
	for start := 0; start < len(misses); start += s.cfg.MaxBatch {
		end := min(start+s.cfg.MaxBatch, len(misses))
		chunk := misses[start:end:end]
		select {
		case s.prebatched <- chunk:
			submitted = end
			s.count(func(c *counters) { c.requests += int64(len(chunk)) })
		case <-ctx.Done():
			// Unsubmitted requests leave the drain set; submitted ones
			// are abandoned but still flow through their batches.
			for range misses[submitted:] {
				s.pending.Done()
			}
			return nil, ctx.Err()
		}
	}
	// Count fan-out rows only once every chunk is admitted, so the
	// served + hits + deduped accounting never includes rows from a call
	// that was cancelled or refused during submission.
	if deduped > 0 {
		s.count(func(c *counters) { c.deduped += deduped })
	}
	for j, r := range misses {
		select {
		case res := <-r.ch:
			for k, i := range missIdx[j] {
				if res.err != nil {
					errs[i] = res.err
					continue
				}
				if k == 0 {
					out[i] = res.tags
				} else {
					// Duplicate rows get their own copy, matching the
					// distinct slices per-row engine calls would return.
					out[i] = slices.Clone(res.tags)
				}
			}
			if res.err == nil && s.cache != nil {
				s.cache.add(r.text, res.tags, res.gen)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var firstErr error
	for i, e := range errs {
		if e != nil {
			firstErr = fmt.Errorf("serving: document %d: %w", i, e)
			break
		}
	}
	return out, firstErr
}

// Swap atomically installs a new engine generation under live traffic: the
// new shards start pulling from the queue first, the old shards finish
// their in-flight batch and exit, and the result cache flushes so no cached
// answer outlives the models that produced it. No accepted request is
// dropped — work queued before the swap is simply served by whichever
// generation's shard pulls it. Swap returns after the old generation has
// fully drained, so its engines are safe to reuse (e.g. to refine offline
// and swap back in later).
//
// The new engines follow New's rules and must not still be serving. They
// must answer interchangeably with each other; whether they must also
// match the retired generation is the caller's consistency contract, not
// the server's.
func (s *Server) Swap(engines ...Engine) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if err := checkEngines(engines, s.cur); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	id := s.generation + 1
	s.mu.Unlock()
	old := s.cur
	s.cur = s.newGeneration(id, engines)
	close(old.stop)
	// Flush as soon as the old shards are told to stop, not after they
	// drain: from here on new-generation answers are cacheable, while any
	// straggling old-generation result is rejected by its generation stamp
	// — so a slow draining batch cannot stall or poison the cache.
	if s.cache != nil {
		s.cache.flush(id)
	}
	//dmtvet:allow lockdiscipline Swap's contract is to return only after the old generation drains; swapMu intentionally serializes that wait
	old.workers.Wait() // old shards have finished their batch and exited
	// Discard the single-flight table only now: until the old shards are
	// gone a fresh leader can still be answered by one, and a miss after
	// Swap returns must not piggyback on it. Outstanding leaders still
	// complete their already-joined waiters (who submitted before the
	// swap finished).
	s.flightMu.Lock()
	s.flights = make(map[string]*flight)
	s.flightMu.Unlock()
	s.mu.Lock()
	s.generation = id
	s.shards = len(engines)
	s.mu.Unlock()
	return nil
}

// serve drives one engine of generation g: it owns every call into e, so e
// sees strictly serial use. An idle shard blocks for the first request (or
// a pre-formed TagBatch chunk), so a lone request reaches an idle engine at
// once; whatever else queued while every shard was busy rides along, up to
// MaxBatch, without waiting for more. The shard exits when g.stop closes,
// after finishing any in-flight batch.
func (s *Server) serve(g *generation, e Engine) {
	defer g.workers.Done()
	batch := make([]*request, 0, s.cfg.MaxBatch)
	texts := make([]string, s.cfg.MaxBatch)
	for {
		// A retired shard must not win another batch off the queue by
		// select's coin toss: look at stop first.
		select {
		case <-g.stop:
			return
		default:
		}
		select {
		case <-g.stop:
			return
		case first := <-s.queue:
			batch = append(batch[:0], first)
		drain:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r := <-s.queue:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			s.run(g.id, e, batch, texts[:len(batch)])
		case chunk := <-s.prebatched:
			s.run(g.id, e, chunk, texts[:len(chunk)])
		}
	}
}

// run answers one batch (at most MaxBatch requests) from engine e of
// generation gen. texts is the shard's reused argument buffer, cut to the
// batch's length.
func (s *Server) run(gen int64, e Engine, batch []*request, texts []string) {
	start := time.Now()
	var waitTotal, waitMax time.Duration
	for i, r := range batch {
		texts[i] = r.text
		w := start.Sub(r.enqueued)
		waitTotal += w
		waitMax = max(waitMax, w)
	}
	out, err := e.AutoTagBatch(texts)
	// The batch error wraps the cause of the first failed row
	// (e.g. "document 3: no answer"); unwrap it so per-request errors
	// don't carry another request's batch-relative index.
	if u := errors.Unwrap(err); u != nil {
		err = u
	}
	answer := func(i int) result {
		switch {
		case i < len(out) && out[i] != nil:
			return result{tags: out[i], gen: gen}
		case err != nil:
			return result{err: err, gen: gen}
		case i < len(out):
			// A nil row without an error is a legal empty answer;
			// normalize it to an empty non-nil list so that a nil
			// answer always means failure (TagBatch callers rely on
			// the distinction to retry exactly the failed rows).
			return result{tags: []string{}, gen: gen}
		default:
			return result{err: ErrNoResult, gen: gen}
		}
	}
	var failed int64
	for i := range batch {
		if answer(i).err != nil {
			failed++
		}
	}
	// Count before the first reply: a caller that reads Stats right after
	// its Tag returns must already find its own request in Served.
	n := len(batch)
	s.count(func(c *counters) {
		c.served += int64(n)
		c.errors += failed
		c.batches++
		c.batchedDocs += int64(n)
		c.maxBatch = max(c.maxBatch, n)
		c.hist[bucketFor(n)]++
		c.waitTotal += waitTotal
		c.waitMax = max(c.waitMax, waitMax)
	})
	for i, r := range batch {
		r.ch <- answer(i)
		s.pending.Done()
	}
}

func bucketFor(n int) int {
	for i, le := range bucketBounds {
		if le == 0 || n <= le {
			return i
		}
	}
	return len(bucketBounds) - 1
}

func (s *Server) count(f func(*counters)) {
	s.mu.Lock()
	f(&s.ctr)
	s.mu.Unlock()
}

// Stats snapshots the counters. Safe to call at any time, including after
// Close.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	c := s.ctr
	shards := s.shards
	gen := s.generation
	s.mu.Unlock()
	st := Stats{
		Shards:         shards,
		Generation:     gen,
		Requests:       c.requests,
		Served:         c.served,
		Deduped:        c.deduped,
		Coalesced:      c.coalesced,
		Errors:         c.errors,
		Rejected:       c.rejected,
		Batches:        c.batches,
		BatchedDocs:    c.batchedDocs,
		MaxBatchSeen:   c.maxBatch,
		QueueWaitTotal: c.waitTotal,
		QueueWaitMax:   c.waitMax,
	}
	if c.batches > 0 {
		st.MeanBatchSize = float64(c.batchedDocs) / float64(c.batches)
	}
	if c.served > 0 {
		st.MeanQueueWait = c.waitTotal / time.Duration(c.served)
	}
	st.BatchSizeHist = make([]BatchBucket, len(bucketBounds))
	for i, le := range bucketBounds {
		st.BatchSizeHist[i] = BatchBucket{Le: le, Count: c.hist[i]}
	}
	if s.cache != nil {
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheEvictions = s.cache.evictions.Load()
		st.CacheEntries = s.cache.len()
		st.CacheCapacity = s.cache.capacity
	}
	st.Issued = st.Served + st.CacheHits + st.Coalesced + st.Deduped
	return st
}

// Close drains and shuts down: new submissions fail with ErrClosed, every
// already-accepted request is answered, then the shard goroutines exit.
// Close blocks until the drain completes and is safe to call more than once
// (later calls wait for the first to finish).
func (s *Server) Close() {
	// Taking swapMu excludes an in-flight Swap: either the swap fully
	// installs before we flip closed (and we drain through the new
	// generation), or it starts after and fails its closed-check — Swap
	// can never report success on a server that has begun shutting down.
	s.swapMu.Lock()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.closing.Store(true)
	cur := s.cur // final: every later Swap fails its closed-check
	s.swapMu.Unlock()
	if already {
		<-s.done
		return
	}
	// Every request ever admitted past the closed check is registered in
	// pending, and the shards are still pulling — both the queue and
	// pre-formed chunks — so this terminates.
	s.pending.Wait()
	close(cur.stop)
	cur.workers.Wait()
	close(s.done)
}
