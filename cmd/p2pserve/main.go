// Command p2pserve is the serving face of the system: it trains a sharded
// pool of identical tagger swarms over a synthetic delicious-style corpus
// and serves AutoTag queries over HTTP/JSON through the micro-batching
// front-end (doctagger.Server). Concurrent requests coalesce into
// AutoTagBatch calls; repeated queries hit the request-level result cache
// (-cache, 0 disables); /v1/stats shows how well both work.
//
// Endpoints:
//
//	POST /v1/tag        {"text": "..."} -> {"tags": ["...", ...]}
//	POST /v1/tag/batch  {"texts": ["...", ...]} -> {"tags": [["...", ...], ...]}
//	                    (bulk path; blocks under backpressure even with
//	                    -fail-fast, bounded by the request context and the
//	                    1024-document per-request cap; on partial failure
//	                    unanswerable rows are null — retry exactly those)
//	POST /v1/refresh    retrain and swap in a new tagger generation, live
//	                    (409 while the pool serves a gossiped generation)
//	POST /v1/publish    cluster mode: train a model generation, install it,
//	                    and gossip it to every mesh peer (see cluster.go)
//	GET  /v1/stats      serving counters, cache counters, swarm traffic;
//	                    in cluster mode also the mesh transport counters
//	                    and the installed gossiped generation
//	GET  /healthz       liveness probe (ok for the process lifetime)
//	GET  /readyz        readiness probe (503 once draining begins)
//
// With -mesh the process additionally joins a realnet cluster (-mesh-join
// lists existing members) and installs model generations gossiped by its
// peers through the same live-swap path — see cluster.go and the
// "Distributed serving cluster" section of the package documentation.
//
// /v1/refresh rebuilds the pool with the same deterministic build the
// process started with and atomically swaps it into the live server:
// in-flight requests drain on the old generation, new requests run on the
// new one, the result cache flushes, and no request is dropped. In a real
// deployment the rebuild would fold in accumulated tag refinements; here
// it demonstrates the live-swap machinery end to end.
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503 first (so load
// balancers stop routing), the listener stops accepting, in-flight and
// queued requests are answered, then the process exits. The pool is closed
// on every exit path — including an HTTP shutdown timeout — so queued
// requests are never silently abandoned (a regression in the first version
// of this command leaked the pool when Shutdown timed out).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	doctagger "repro"
	"repro/internal/realnet"
)

type options struct {
	addr      string
	protocol  string
	peers     int
	shards    int
	seed      int64
	threshold float64
	docsMin   int
	docsMax   int
	numTags   int
	maxBatch  int
	maxQueue  int
	failFast  bool
	cache     int

	mesh     string
	meshJoin string
	maxTags  int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pserve: ")
	var o options
	flag.StringVar(&o.addr, "addr", ":8473", "HTTP listen address")
	flag.StringVar(&o.protocol, "protocol", "cempar", "cempar | pace | centralized | local")
	flag.IntVar(&o.peers, "peers", 8, "swarm size per shard")
	flag.IntVar(&o.shards, "shards", 2, "identically trained tagger swarms in the pool")
	flag.Int64Var(&o.seed, "seed", 1, "corpus and swarm seed")
	flag.Float64Var(&o.threshold, "threshold", 0.5, "confidence threshold for auto-tagging (0 accepts every tag)")
	flag.IntVar(&o.docsMin, "docs-min", 8, "minimum training documents per peer")
	flag.IntVar(&o.docsMax, "docs-max", 12, "maximum training documents per peer")
	flag.IntVar(&o.numTags, "tags", 8, "size of the synthetic tag universe")
	flag.IntVar(&o.maxBatch, "max-batch", 32, "most queued requests one engine call takes (batches form only while every shard is busy)")
	flag.IntVar(&o.maxQueue, "max-queue", 0, "submission queue bound (0 = 8*max-batch)")
	flag.BoolVar(&o.failFast, "fail-fast", false, "reject with 503 when the queue is full instead of blocking")
	flag.IntVar(&o.cache, "cache", 1024, "request-level result cache entries (0 disables)")
	flag.StringVar(&o.mesh, "mesh", "", "realnet mesh listen address; empty = standalone (no gossip)")
	flag.StringVar(&o.meshJoin, "mesh-join", "", "comma-separated mesh addresses of existing cluster nodes")
	flag.IntVar(&o.maxTags, "max-tags", 4, "tag cap for gossiped-generation answers (0 = unlimited)")
	flag.Parse()

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	// The server never replays the test split; only the tests do.
	build, _, trainTexts, err := makeBuild(o)
	if err != nil {
		return err
	}
	log.Printf("training %d shard(s): %s, %d peers each ...", o.shards, o.protocol, o.peers)
	start := time.Now()
	pool, err := newPool(o, build)
	if err != nil {
		return err
	}
	log.Printf("pool ready in %v", time.Since(start).Round(time.Millisecond))
	a := &app{pool: pool, build: build, o: o, trainTexts: trainTexts}
	if o.mesh != "" {
		if err := a.startMesh(meshConfig(o)); err != nil {
			pool.Close()
			return err
		}
		log.Printf("mesh node listening on %s", a.mesh.Addr())
	}
	return serveHTTP(a, o)
}

// makeBuild generates the synthetic corpus and returns the deterministic
// per-shard tagger builder over its training split, the test split's texts
// (held-out queries), and the training split as labeled texts — the input
// cluster nodes train gossiped model generations from. Training from the
// same (corpus, seed) on any node yields byte-identical generations, which
// is what lets the cluster verify answers against a serial reference.
func makeBuild(o options) (func(int) (*doctagger.Tagger, error), []string, []realnet.TaggedText, error) {
	docs, _, err := doctagger.GenerateCorpus(doctagger.CorpusConfig{
		Users:          o.peers,
		DocsPerUserMin: o.docsMin,
		DocsPerUserMax: o.docsMax,
		NumTags:        o.numTags,
		Seed:           o.seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	train, test := doctagger.SplitCorpus(docs, 0.5, o.seed)
	// On the flag, 0 literally means "accept every tag"; translate to the
	// Config sentinel, which reserves 0 for "use the default".
	threshold := o.threshold
	if threshold == 0 {
		threshold = doctagger.ThresholdNone
	}
	build := func(int) (*doctagger.Tagger, error) {
		tg, err := doctagger.New(doctagger.Config{
			Protocol:  o.protocol,
			Peers:     o.peers,
			Threshold: threshold,
			Seed:      o.seed,
		})
		if err != nil {
			return nil, err
		}
		for _, d := range train {
			if err := tg.AddDocument(d.User%o.peers, d.Text, d.Tags...); err != nil {
				return nil, err
			}
		}
		return tg, tg.Train()
	}
	queries := make([]string, 0, len(test))
	for _, d := range test {
		queries = append(queries, d.Text)
	}
	trainTexts := make([]realnet.TaggedText, 0, len(train))
	for _, d := range train {
		trainTexts = append(trainTexts, realnet.TaggedText{Text: d.Text, Tags: d.Tags})
	}
	return build, queries, trainTexts, nil
}

// newPool trains o.shards identical tagger swarms and fronts them with the
// serving layer, caching o.cache answers (0 = off).
func newPool(o options, build func(int) (*doctagger.Tagger, error)) (*doctagger.Server, error) {
	return doctagger.NewReplicatedServer(o.shards, doctagger.ServerConfig{
		MaxBatch:  o.maxBatch,
		MaxQueue:  o.maxQueue,
		FailFast:  o.failFast,
		CacheSize: o.cache,
	}, build)
}

// maxBatchRequestDocs caps one /v1/tag/batch request; larger uploads
// should be split by the client. The byte limits bound request bodies
// before decoding, so a huge upload is refused without being buffered.
const (
	maxBatchRequestDocs  = 1024
	maxTagRequestBytes   = 1 << 20  // 1 MiB: one document
	maxBatchRequestBytes = 16 << 20 // 16 MiB: up to 1024 documents
)

// app is the HTTP-facing state: the live pool, the deterministic builder
// /v1/refresh retrains with, the optional realnet mesh node (cluster
// mode), and the readiness flag the drain sequence flips before the
// listener stops accepting.
type app struct {
	pool     *doctagger.Server
	build    func(int) (*doctagger.Tagger, error)
	o        options
	draining atomic.Bool
	// refreshing rejects refresh requests that arrive while one is
	// already retraining — a retrain burns seconds of CPU, so queueing
	// a burst of them would starve query serving for no benefit.
	refreshing atomic.Bool

	// Cluster state; mesh is nil in standalone mode. trainTexts is the
	// labeled training split /v1/publish trains gossiped generations from.
	mesh       *realnet.Node
	trainTexts []realnet.TaggedText
	genMu      sync.Mutex          // serializes generation installs in arrival order
	lastGen    *realnet.Generation // newest generation installed into the pool
}

// mux wires the HTTP API around the app.
func (a *app) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tag", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Text string `json:"text"`
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxTagRequestBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if strings.TrimSpace(req.Text) == "" {
			httpError(w, http.StatusBadRequest, errors.New("empty text"))
			return
		}
		tags, err := a.pool.Tag(r.Context(), req.Text)
		if err != nil {
			writeTagError(w, err)
			return
		}
		if tags == nil {
			tags = []string{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"tags": tags})
	})
	mux.HandleFunc("POST /v1/tag/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Texts []string `json:"texts"`
		}
		// The byte limit, not the document-count check below, is what
		// actually bounds per-request memory: the decoder would otherwise
		// materialize an arbitrarily large texts array before the count
		// is ever examined.
		r.Body = http.MaxBytesReader(w, r.Body, maxBatchRequestBytes)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if len(req.Texts) == 0 {
			httpError(w, http.StatusBadRequest, errors.New("empty texts"))
			return
		}
		if len(req.Texts) > maxBatchRequestDocs {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%d texts exceed the per-request limit of %d", len(req.Texts), maxBatchRequestDocs))
			return
		}
		for i, text := range req.Texts {
			if strings.TrimSpace(text) == "" {
				httpError(w, http.StatusBadRequest, fmt.Errorf("empty text at index %d", i))
				return
			}
		}
		tags, err := a.pool.TagBatch(r.Context(), req.Texts)
		if err != nil && !errors.Is(err, doctagger.ErrNoAnswer) {
			writeTagError(w, err)
			return
		}
		// A wrapped ErrNoAnswer is a partial failure: answered rows carry
		// their tags, unanswerable rows stay null — clients retry exactly
		// the null rows. (An answered row with no tags would be [], not
		// null, preserving the library's nil-vs-empty distinction.)
		resp := map[string]any{"tags": tags}
		if err != nil {
			resp["error"] = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/refresh", func(w http.ResponseWriter, r *http.Request) {
		if a.draining.Load() {
			httpError(w, http.StatusServiceUnavailable, errors.New("draining"))
			return
		}
		// One retrain at a time, and no queue of them: a burst of refresh
		// requests would otherwise serialize into back-to-back full
		// retrains (Refresh itself only serializes, it cannot coalesce).
		if !a.refreshing.CompareAndSwap(false, true) {
			httpError(w, http.StatusTooManyRequests, errors.New("a refresh is already in progress"))
			return
		}
		defer a.refreshing.Store(false)
		start := time.Now()
		gen, err := a.pool.Refresh(a.build)
		if err != nil {
			switch {
			case errors.Is(err, doctagger.ErrServerClosed):
				httpError(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, doctagger.ErrNotTaggerBacked):
				// The pool serves a gossiped generation: a conflict with
				// the node's state, not a server fault.
				httpError(w, http.StatusConflict, err)
			default:
				httpError(w, http.StatusInternalServerError, err)
			}
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			// The generation this request installed, from Refresh itself:
			// a Stats snapshot here could already reflect a queued later
			// refresh.
			"generation": gen,
			"shards":     a.pool.Stats().Shards,
			"seconds":    time.Since(start).Seconds(),
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.statsPayload())
	})
	if a.mesh != nil {
		mux.HandleFunc("POST /v1/publish", a.handlePublish)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeTagError maps tagging errors onto HTTP statuses.
func writeTagError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, doctagger.ErrOverloaded), errors.Is(err, doctagger.ErrServerClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, doctagger.ErrNoAnswer):
		httpError(w, http.StatusBadGateway, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away; nothing useful to write.
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// serveHTTP runs the API until SIGINT/SIGTERM, then drains: /readyz goes
// unready first, the listener shuts down second, the pool third, so load
// balancers stop routing and every accepted request is answered. The pool
// is closed on every exit path — in particular, an http.Server.Shutdown
// timeout must not leak the pool with requests still queued (regression:
// the original drain returned early on that path and abandoned them).
func serveHTTP(a *app, o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: o.addr, Handler: a.mux()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", o.addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		a.draining.Store(true)
		a.closeMesh()
		a.pool.Close()
		return err
	case <-ctx.Done():
	}
	a.draining.Store(true)
	log.Print("shutting down: draining in-flight requests ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(shutdownCtx)
	// Close the mesh first — no more gossiped generations arrive once
	// draining began — then the pool, whether or not the HTTP shutdown
	// timed out: accepted requests are still drained and answered.
	a.closeMesh()
	a.pool.Close()
	if shutdownErr != nil {
		return fmt.Errorf("http shutdown: %w", shutdownErr)
	}
	st := a.pool.Stats()
	log.Printf("drained: served %d requests in %d batches (mean batch %.2f, %d cache hits, %d coalesced)",
		st.Served, st.Batches, st.MeanBatchSize, st.CacheHits, st.Coalesced)
	return <-errc
}
