// Package doctagger is a from-scratch reproduction of P2PDocTagger (Ang,
// Gopalkrishnan, Ng, Hoi — PVLDB 3(2):1601-1604, VLDB 2010): an automated,
// distributed collaborative document tagging system based on classification
// in P2P networks.
//
// The package exposes the full pipeline of the paper's Fig. 1:
//
//	select documents → preprocess → manual tagging →
//	P2P collaborative learning → automatic tagging → tag refinement
//
// A Tagger embeds a simulated peer swarm (the paper's own demonstrations
// ran on the P2PDMT simulator for the same reason: realistic P2P testing
// needs hundreds of machines). The local user is peer 0; the remaining
// peers contribute their own labeled documents, and the configured P2P
// classification protocol — CEMPaR (cascade kernel SVMs at DHT-elected
// super-peers) or PACE (linear SVM ensembles indexed by LSH) — pools their
// knowledge. Centralized and local-only engines are included as the
// baselines every experiment compares against.
//
// A Library persists tag metadata, answers tag searches, and builds the
// co-occurrence tag cloud of the paper's Fig. 4.
//
// The experiment harness reproducing the paper's demonstration scenarios
// lives in bench_test.go (one benchmark per experiment; "go run
// ./cmd/experiments" prints every table) and is driven by the P2PDMT
// toolkit under internal/p2pdmt.
//
// # Parallel execution
//
// CPU-bound work throughout the system runs on internal/runner, a
// deterministic parallel execution subsystem: independent jobs fan out
// over a GOMAXPROCS-sized worker pool and results are collected in
// submission order, so parallel output is byte-identical to a serial run.
// Three layers use it:
//
//   - Experiment sweeps (internal/experiments): every (experiment, config)
//     cell is an independent job building its own simulated network from
//     its own seed. Rows append in declaration order. Run sweeps with
//     "cmd/experiments -parallel N" (0 = all cores, 1 = serial); "-seed S"
//     re-seeds a sweep, deriving an independent seed per cell via
//     runner.DeriveSeed(S, experimentID, cellCoordinates...) — FNV-1a over
//     the cell's identity finished with the SplitMix64 avalanche, so no
//     two cells share a random stream and neither scheduling order nor
//     worker count can change any cell's result.
//   - Per-peer training (internal/p2pdmt and the protocols): each peer's
//     local SVM training reads only that peer's shard, so peers train
//     concurrently; only the protocol message exchange stays on the
//     simulator's virtual clock. CEMPaR's per-tag regional cascades and
//     the centralized baseline's per-tag global models parallelize the
//     same way. See p2pdmt.Config.Parallel.
//
// The determinism contract — parallel execution is bit-identical to
// serial — is enforced by tests at all three layers (see
// internal/experiments/determinism_test.go, TestRunParallelMatchesSerial,
// TestAutoTagBatchMatchesSerial) and the suite is race-clean under
// "go test -race ./...".
//
// # Simulation engine
//
// The simulator (internal/simnet) runs on one event heap and one virtual
// clock on the calling goroutine. Its determinism contract is the same as
// everywhere else in the repo: events are ordered by (time, creating node,
// per-node counter) rather than by arrival, system events (churn,
// stabilizers) run before node events at the same instant, and every node
// draws latency jitter, drop decisions and churn sessions from a private
// stream derived via runner.DeriveSeed(seed, nodeID). The parallelism
// above — sweep cells, per-peer training, regional merges — runs outside
// the event loop. BenchmarkEventLoop (internal/simnet) times the event
// hot path.
//
// # Serving
//
// A Tagger is not safe for concurrent use; a Server is. Server (backed by
// internal/serving) turns a pool of identically trained Taggers into a
// concurrent serving front-end: goroutines submit single documents with
// Tag (or many at once with TagBatch, which reaches the shards as
// pre-formed batches) onto a bounded queue that one goroutine per shard
// pulls from — an idle engine takes a request at once, and only while
// every engine is busy do requests batch, up to MaxBatch — with
// backpressure, per-request error propagation and a graceful drain on
// Close. Batched answers are exactly what serial AutoTag calls would
// return for the same inputs; the Stats snapshot (batch counts, batch-size
// histogram, queue waits, cache counters, aggregate swarm traffic) shows
// what the batching bought. See ExampleServer, and cmd/p2pserve for the
// HTTP/JSON face of the same layer (POST /v1/tag, /v1/tag/batch,
// /v1/refresh, GET /v1/stats, /healthz, /readyz).
//
// Two serving capabilities ride on the determinism contract:
//
//   - Request-level caching (ServerConfig.CacheSize): a sharded, bounded
//     LRU keyed on document text answers repeated queries without
//     re-entering a swarm. Sound because queries never feed back into the
//     models — identical text means identical tags for as long as one
//     model generation serves. Cached answers are test-pinned
//     byte-identical to uncached serial AutoTag.
//   - Live model refresh (Server.SwapEngines / Server.Refresh): a new
//     identically trained generation is installed under traffic — new
//     shards start pulling from the queue, old shards finish their
//     in-flight batch and exit, the cache flushes so no answer outlives its
//     models, and no accepted request is dropped. This is how
//     (*Tagger).Refine reaches live serving: refine a retired (or freshly
//     built) generation offline, then swap it in — the paper's "upon the
//     refinement of tags, P2PDocTagger will automatically update the
//     classification model(s)", made concurrent.
//   - Single-flight dedup (always on): concurrent Tag calls for identical
//     text coalesce onto one in-flight swarm query per model generation;
//     followers wait for the leader's answer instead of issuing their own
//     (ServerStats.Coalesced counts them). Same soundness argument as the
//     cache, same generation purity: Swap discards the in-flight table.
//
// # Distributed serving cluster
//
// Serving is not tied to Taggers: Engine is the minimal contract the
// dispatcher needs (AutoTagBatch over texts). NewServer is NewEngineServer
// over taggers, and Server.SwapEngines is the one install path for every
// generation, tagger-backed or not; Refresh rebuilds a tagger generation
// through it. Network traffic and Refresh's ErrNotTaggerBacked follow the
// engines' dynamic type, whichever path installed them. ServerStats.Issued
// exposes the serving accounting identity (Issued = Served + CacheHits +
// Coalesced + Deduped), the invariant cluster tests check per node.
//
// internal/realnet composes with this into a distributed serving cluster:
// real TCP peers gossip whole model generations (wire-encoded calibrated
// model sets, flooded with (sequence, origin) dedup and periodic
// anti-entropy rebroadcast by the origin), and every node installs an
// arriving generation through SwapEngines as a realnet.Ensemble — the
// calibrated probabilities of the gossiped per-tag models whose accuracy
// is above chance, deterministic in (corpus, seed), so every node answers
// byte-identically. The realnet transport is hardened for that role:
// per-peer retry budgets with seed-derived exponential backoff, dead-peer
// quarantine with re-probe, per-frame read deadlines, frame corruption and
// sender-address validation, bounded peer tables, and per-peer counters
// (sends, retries, failures, frames and bytes in/out) surfaced through
// Node.Transport().
// PublishGeneration reports per-peer partial failure instead of a single
// error.
//
// cmd/p2pserve ties it together ("-mesh", "-mesh-join"): N processes form
// a mesh, POST /v1/publish trains and floods a generation cluster-wide,
// GET /v1/stats adds the transport counters and installed generation, and
// the cluster chaos test (cmd/p2pserve/cluster_test.go) pins the
// acceptance story — a node killed and restarted and a partition healed
// while every query keeps answering byte-identically to a serial
// reference with zero dropped requests.
//
// # Adversarial resilience
//
// The mesh assumes Byzantine peers, not just crashed ones. Every inbound
// generation runs a validation pipeline before it touches any state: a
// wire-size budget, a content digest carried in the frame (wire.Checksum
// over the encoded set — corrupt or tampered bytes fail before the
// decoder runs), hardened wire decoders whose allocations grow
// incrementally against claimed lengths (fuzzed, with a committed seed
// corpus), structural validation (tag/dimension caps, finite-weight scan
// rejecting NaN/Inf), and a holdout probe scoring the set against a small
// local corpus — plausible-looking but systematically wrong models
// (weight-scaled, label-flipped) fail here. Rejections feed a per-origin
// trust ledger: a rejected origin's score halves and it is quarantined
// for a seed-jittered window (runner.DeriveSeed per origin), after which
// the next generation it gossips is re-probed; accepted generations
// rebuild score. Admission runs on the quarantine; the score is a
// reputation reported in /v1/stats. Only trust-admitted generations
// install, relay, or reach the serving swap, and generation gossip is the
// only traffic that carries a model set. Stale (sequence, origin) echoes
// are normal gossip traffic, deduplicated without charging trust.
//
// realnet.Adversary is the attack side: a deterministic scripted
// Byzantine peer (NaN bombs, weight-scaled poison, label-flipped
// retrains, stale replays, forged-origin floods — every corruption drawn
// from runner.DeriveSeed streams) that folds each frame it builds into a
// digest, so a dry run pins byte-for-byte what a live run injected.
// TestClusterByzantine (cmd/p2pserve) drives it against a serving cluster
// under continuous load: every answer stays byte-identical to the serial
// reference, nothing poisoned installs, and /v1/stats shows the rejects
// and demoted trust.
//
// # Inference fast path
//
// Every cache miss runs the zero-allocation inference fast path:
//
//   - Pooled preprocessing: Vectorize tokenizes, filters, stems (in place,
//     on bytes) and counts terms on a sync.Pool workspace — zero
//     allocations in steady state except the returned vector itself (two
//     allocations; terms new to the lexicon add O(1) amortized more).
//     Workspaces must never escape the call that took them from the pool;
//     everything handed to callers is copied out.
//   - One calibrated bank, fused multi-tag scoring: the baselines, PACE
//     and the realnet mesh train (TrainBank: one-vs-all SVMs, a per-model
//     post hook, cross-validated Platt) and score (Bank.Probs/Score)
//     through protocol.Bank; PACE pools many banks (Pool: the
//     accuracy-weighted log-odds vote, scaled by proximity). A Bank packs its models
//     into one svm.FusedLinear inverted score matrix (feature id ->
//     per-tag weights; CSR cells for sparse pruned ensembles and narrow
//     banks, 8-wide blocked rows for shared-pool banks), Platt and
//     accuracy in the matrix's tag order, so scoring T tags is one
//     ascending pass over the document's non-zero entries instead of T dot
//     products. The matrix is immutable derived data, rebuilt wherever the
//     bank changes (retraining, Refine, serving SwapEngines/Refresh).
//   - Kernel bank: a CEMPaR super-peer packs its per-tag regional
//     KernelModels into one svm.KernelBank at the end of every cascade.
//     The tags' models share support-vector pointers, so the bank interns
//     the distinct vectors, stores them as an inverted index (feature id
//     -> support vector, value), computes one kernel row per query — work
//     proportional to matching terms — and runs the per-tag sums over it,
//     instead of one sparse dot and one exp per (tag, support vector)
//     reference. Like FusedLinear it is immutable derived data.
//     KernelModel.Decision (with its Precompute norm cache) remains what
//     training-time calibration calls and the reference the bank is
//     pinned against.
//
// Every stage is pinned byte-identical to the straightforward
// implementation it replaced — reference copies of the seed tokenizer,
// vectorizer and kernel evaluation live in the tests and must agree on
// exact float64 bit patterns — so the fast path changes latency, never
// answers.
//
// # Streaming execution
//
// Tagger has one query path, whatever the protocol:
// Preprocessor.VectorizeInto hands the pooled, sorted, weighted entries
// straight to the protocol's PredictEntries, and protocol.SelectTagsInto
// thresholds out of reused scratch; AutoTagBatch is a loop over the same
// path, so AutoTagBatch/serving.TagBatch carry O(1) intermediate state. A
// local protocol scores the borrowed entries in place with
// protocol.Bank.Score (ScoreEntriesInto, then Platt), so a whole local
// AutoTag runs in at most two allocations (the returned tags); a protocol
// that answers over the simulated network (CEMPaR, or a centralized query
// from a non-coordinator) copies the entries once into the query it sends.
// Three contracts make it safe:
//
//   - Layout selection: NewFusedLinear puts banks of at least 25% fill
//     and four tags in the blocked layout (rows zero-padded to multiples
//     of eight, scored in register-resident accumulator blocks with
//     bounds-check-free unrolled loops), everything else in CSR (on 1-3
//     tags padding buys nothing). NewFusedLinearLayout forces a layout.
//   - Bit-identity: both layouts accumulate each tag's partial sums over
//     entries in ascending feature-id order and padding lanes only add
//     v*0, so both reproduce per-tag Decision exactly; Bank and Pool are
//     pinned likewise on generated banks, and realnet.Ensemble against
//     per-tag Decision then Platt.
//   - Scratch lifetime: the entries VectorizeInto passes to its visitor
//     (and the scores PredictEntries hands its callback) live in
//     pooled scratch, valid only until the visit returns — consume or
//     copy, never retain. dmtvet/scratchescape enforces this mechanically.
//
// # Static analysis / invariants
//
// The contracts above are not just prose: cmd/dmtvet (internal/lint) is a
// suite of custom analyzers — built on internal/lint/analysis, an
// offline, API-compatible stand-in for golang.org/x/tools/go/analysis
// grown into a flow-aware interprocedural engine (intra-module call graph
// plus deterministic per-function summaries, so facts cross call
// boundaries) — that enforces them at vet time, as a required CI step
// next to go vet:
//
//   - detrand: no wall-clock reads (time.Now/Since/Until), global
//     math/rand draws, or rand generators whose seed does not flow from
//     runner.DeriveSeed or a Config/Options seed field, inside the
//     deterministic packages (simnet, p2pdmt, cempar, pace, baseline,
//     experiments, textproc, svm, runner and the simulation substrate) —
//     including nondeterminism smuggled in through helpers elsewhere in
//     the module.
//   - maprange: no order-dependent reductions over map iteration (float
//     accumulation, string concatenation, unsorted appends) — the latent
//     MacroF1 bug class fixed by hand in PR 1.
//   - scratchescape: pooled scratch workspaces must not escape the
//     borrowing call (the preprocessing contract above), even through a
//     helper that returns or retains its parameter.
//   - enginerules: node event handlers must not call serial-point engine
//     APIs (AddNode/RemoveNode/Kill/Revive/ScheduleSystem) or the setup
//     stream Rand — the engine discipline, previously a runtime panic, as a
//     compile-time diagnostic.
//   - fusedmut: svm.FusedLinear and svm.KernelBank are immutable outside
//     their constructors (the rebuild-on-swap contract above), even when
//     their backing memory is handed to a helper that mutates its
//     parameter.
//   - lockdiscipline: no blocking operation (channel op, select,
//     WaitGroup.Wait, sleep, network/file I/O — directly or through a
//     callee whose summary blocks) while a mutex is held, no lock-order
//     inversions against the program-wide observed acquisition order, no
//     re-acquiring a held lock class, no copying values containing sync
//     primitives.
//   - goroleak: every spawned goroutine has a join or cancel path (a
//     channel op, select, close, WaitGroup.Done, or context-done) so
//     Close/drain can wait for it — the drain contracts above.
//   - waiverstale: a waiver comment that no longer suppresses anything is
//     itself a diagnostic, so suppressions stay honest.
//
// Run `go run ./cmd/dmtvet ./...` (or `make lint`) locally — identical to
// CI (-json serves machine consumers, -run narrows the analyzer set).
// Surgical exceptions use a mandatory-reason waiver comment on or directly above
// the offending line:
//
//	//dmtvet:allow <analyzer> <reason>
package doctagger
