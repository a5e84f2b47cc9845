// Package textproc implements the document preprocessing stage of
// P2PDocTagger (§2 of the paper): tokenization, stop-word and sensitive-word
// filtering, Porter stemming, a shared lexicon mapping words to feature ids,
// and vectorization of documents into sparse term-frequency vectors.
package textproc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/runner"
	"repro/internal/vector"
)

// span is one token's [start, end) byte range inside a workspace arena.
type span struct{ start, end int }

// workspace is the pooled per-call scratch of the preprocessing fast path.
// Token bytes live back to back in arena with spans marking their ranges;
// ids and entries carry the vectorization stages. Workspaces are reused
// through wsPool, so steady-state tokenization, filtering and stemming
// allocate nothing. A workspace must never escape the call that took it
// from the pool: everything handed to callers is copied out first.
type workspace struct {
	arena   []byte
	spans   []span
	ids     []int32
	entries []vector.Entry
	idf     []float64
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace  { return wsPool.Get().(*workspace) }
func putWorkspace(w *workspace) { wsPool.Put(w) }

// tokenize fills ws.arena/ws.spans with the lower-case word tokens of
// text: maximal runs of letters or digits containing at least one letter
// (pure numbers are dropped since they carry little recognition value for
// tagging). Apostrophes survive inside a word ("don't") so contractions
// match stop words, but leading and trailing ones are stripped: "dogs'"
// must tokenize as "dogs", or possessives and quoted words would never
// share a lexicon id with the bare word.
func (ws *workspace) tokenize(text string) {
	ws.arena = ws.arena[:0]
	ws.spans = ws.spans[:0]
	start := 0
	hasLetter := false
	for _, r := range text {
		switch {
		case r < utf8.RuneSelf && ('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'):
			// ASCII letter fast path: branch-free lower-casing.
			ws.arena = append(ws.arena, byte(r)|0x20)
			hasLetter = true
		case r < utf8.RuneSelf && '0' <= r && r <= '9':
			ws.arena = append(ws.arena, byte(r))
		case r == '\'':
			// Keep apostrophes inside words so stop words like "don't" match.
			if len(ws.arena) > start {
				ws.arena = append(ws.arena, '\'')
			}
		case unicode.IsLetter(r):
			ws.arena = utf8.AppendRune(ws.arena, unicode.ToLower(r))
			hasLetter = true
		case unicode.IsDigit(r):
			ws.arena = utf8.AppendRune(ws.arena, r)
		default:
			start = ws.flushToken(start, hasLetter)
			hasLetter = false
		}
	}
	ws.flushToken(start, hasLetter)
}

// flushToken closes the token occupying ws.arena[start:]: trailing
// apostrophes are trimmed and a span recorded when the token contains a
// letter; letterless tokens (pure numbers) are discarded. Returns the
// start of the next token.
func (ws *workspace) flushToken(start int, hasLetter bool) int {
	if end := len(ws.arena); end > start {
		if hasLetter {
			for end > start && ws.arena[end-1] == '\'' {
				end--
			}
			ws.spans = append(ws.spans, span{start, end})
		} else {
			end = start // discard letterless tokens (pure numbers)
		}
		ws.arena = ws.arena[:end]
	}
	return len(ws.arena)
}

// Tokenize splits raw text into lower-case word tokens; see
// workspace.tokenize for the exact rules. The returned strings are
// independent copies, so this costs one allocation per token — the tagging
// fast path stays on workspace bytes and never materializes them.
func Tokenize(text string) []string {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(text)
	if len(ws.spans) == 0 {
		return nil
	}
	tokens := make([]string, len(ws.spans))
	for i, sp := range ws.spans {
		tokens[i] = string(ws.arena[sp.start:sp.end])
	}
	return tokens
}

// Lexicon maps normalized words to stable int32 feature ids. It is safe for
// concurrent use: tagging peers in the live CLI share one lexicon.
type Lexicon struct {
	mu    sync.RWMutex
	ids   map[string]int32
	words []string
}

// NewLexicon returns an empty lexicon.
func NewLexicon() *Lexicon {
	return &Lexicon{ids: make(map[string]int32)}
}

// ID returns the feature id for word, assigning a new id when the word is
// unseen.
func (l *Lexicon) ID(word string) int32 {
	l.mu.RLock()
	id, ok := l.ids[word]
	l.mu.RUnlock()
	if ok {
		return id
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id, ok = l.ids[word]; ok {
		return id
	}
	id = int32(len(l.words))
	l.ids[word] = id
	l.words = append(l.words, word)
	return id
}

// IDBytes is ID for a word held as bytes. The fast path — the word is
// already interned — allocates nothing: a map index with a string(b)
// conversion is free, and only an unseen word pays for its string.
func (l *Lexicon) IDBytes(word []byte) int32 {
	l.mu.RLock()
	id, ok := l.ids[string(word)]
	l.mu.RUnlock()
	if ok {
		return id
	}
	return l.ID(string(word))
}

// Lookup returns the id of word without assigning a new one.
func (l *Lexicon) Lookup(word string) (int32, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	id, ok := l.ids[word]
	return id, ok
}

// Word returns the word for feature id, or "" when the id is unknown.
func (l *Lexicon) Word(id int32) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if id < 0 || int(id) >= len(l.words) {
		return ""
	}
	return l.words[id]
}

// Size returns the number of distinct words in the lexicon.
func (l *Lexicon) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.words)
}

// Weighting selects how term weights are computed during vectorization.
type Weighting int

const (
	// TermFrequency stores raw within-document term counts, the
	// representation described in the paper ("the value of the attributes
	// represents the word frequency in the documents").
	TermFrequency Weighting = iota
	// LogTF stores 1+log(tf), damping very frequent terms.
	LogTF
	// TFIDF multiplies term frequency by the inverse document frequency
	// accumulated from all documents previously processed by this
	// preprocessor.
	TFIDF
)

func (w Weighting) String() string {
	switch w {
	case TermFrequency:
		return "tf"
	case LogTF:
		return "logtf"
	case TFIDF:
		return "tfidf"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// Options configures a Preprocessor.
type Options struct {
	// Weighting selects the term-weight scheme; default TermFrequency.
	Weighting Weighting
	// Normalize scales each document vector to unit L2 norm after
	// weighting. Recommended (and default) for SVM training.
	Normalize bool
	// MinWordLen drops tokens shorter than this many bytes after stemming;
	// default 2.
	MinWordLen int
	// KeepStopWords disables stop-word filtering (used in tests).
	KeepStopWords bool
	// HashDim, when positive, switches feature ids from lexicon-assigned
	// sequential ids to word hashes modulo HashDim ("hashing trick").
	// Hashed ids are stable across machines with no coordination, which
	// is what lets independently running peers exchange models whose
	// weight indices mean the same thing everywhere. The lexicon is
	// bypassed, so TopTerms cannot resolve words in this mode.
	HashDim int
}

// Preprocessor turns raw document text into sparse feature vectors using a
// shared lexicon, per the pipeline of Fig. 1. It is safe for concurrent use.
type Preprocessor struct {
	opts      Options
	lexicon   *Lexicon
	mu        sync.RWMutex
	stop      map[string]bool
	sensitive map[string]bool
	docCount  int
	docFreq   map[int32]int
}

// NewPreprocessor returns a preprocessor sharing lexicon lex. A nil lexicon
// allocates a fresh one.
func NewPreprocessor(lex *Lexicon, opts Options) *Preprocessor {
	if lex == nil {
		lex = NewLexicon()
	}
	if opts.MinWordLen == 0 {
		opts.MinWordLen = 2
	}
	return &Preprocessor{
		opts:      opts,
		lexicon:   lex,
		stop:      DefaultStopWords(),
		sensitive: make(map[string]bool),
		docFreq:   make(map[int32]int),
	}
}

// Lexicon returns the shared lexicon.
func (p *Preprocessor) Lexicon() *Lexicon { return p.lexicon }

// AddSensitiveWords registers user-specified words that must never appear in
// feature vectors (the privacy filter of §2). Matching is performed on the
// lower-cased raw token, before stemming.
func (p *Preprocessor) AddSensitiveWords(words ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range words {
		p.sensitive[strings.ToLower(w)] = true
	}
}

// terms runs the filter-and-stem stage over ws's tokens in place: stop
// words and sensitive words drop, apostrophes are stripped, and each
// surviving token is Porter-stemmed inside the arena. ws.spans afterwards
// holds the surviving terms in document order.
func (p *Preprocessor) terms(ws *workspace) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := ws.spans[:0]
	for _, sp := range ws.spans {
		tok := ws.arena[sp.start:sp.end]
		// string(tok) in a map index does not allocate.
		if !p.opts.KeepStopWords && p.stop[string(tok)] {
			continue
		}
		if p.sensitive[string(tok)] {
			continue
		}
		// Apostrophes served their purpose for stop-word matching; strip
		// possessives before stemming. Compaction happens inside the
		// token's own arena range, so later spans are untouched.
		w := tok[:0]
		for _, c := range tok {
			if c != '\'' {
				w = append(w, c)
			}
		}
		s := StemBytes(w)
		if len(s) < p.opts.MinWordLen {
			continue
		}
		if p.sensitive[string(s)] {
			continue
		}
		out = append(out, span{sp.start, sp.start + len(s)})
	}
	ws.spans = out
}

// Terms tokenizes, filters and stems text, returning the surviving terms in
// document order.
func (p *Preprocessor) Terms(text string) []string {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(text)
	p.terms(ws)
	if len(ws.spans) == 0 {
		return nil
	}
	out := make([]string, len(ws.spans))
	for i, sp := range ws.spans {
		out[i] = string(ws.arena[sp.start:sp.end])
	}
	return out
}

// Vectorize converts text into a sparse feature vector, assigning new
// lexicon ids as needed (or hashing, when HashDim is set) and updating
// document-frequency statistics.
//
// This is the zero-allocation inference fast path: tokenization, filtering,
// stemming and term counting all run on a pooled workspace, so the steady
// state allocates only the returned vector (terms new to the lexicon add
// O(1) amortized allocations for their interned strings). The result is
// byte-identical to the historical map-and-sort implementation, which the
// textproc tests pin against a reference copy of that code.
func (p *Preprocessor) Vectorize(text string) *vector.Sparse {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(text)
	p.terms(ws)
	ws.ids = ws.ids[:0]
	for _, sp := range ws.spans {
		ws.ids = append(ws.ids, p.featureIDBytes(ws.arena[sp.start:sp.end]))
	}
	return p.finishVector(ws)
}

// VectorizeInto is the streaming terminal of the fast path: it vectorizes
// text exactly like Vectorize but hands the finished entries to visit
// instead of materializing a *vector.Sparse, so a pure local score path
// (workspace -> FusedLinear.ScoreEntriesInto) runs with no per-document
// vector allocation at all.
//
// Scratch-lifetime contract: the entries slice lives in pooled workspace
// memory and is valid only for the duration of the visit call. visit must
// consume it synchronously — score it, copy it — and must not retain the
// slice, alias it, or hand it to anything that outlives the call. visit is
// invoked exactly once, with an empty slice for an empty document. The
// entries are sorted by ascending feature id with no duplicates, the same
// invariant Vectorize's returned vector carries; document-frequency
// statistics update exactly as in Vectorize.
func (p *Preprocessor) VectorizeInto(text string, visit func(entries []vector.Entry)) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(text)
	p.terms(ws)
	ws.ids = ws.ids[:0]
	for _, sp := range ws.spans {
		ws.ids = append(ws.ids, p.featureIDBytes(ws.arena[sp.start:sp.end]))
	}
	if !p.weigh(ws) {
		// Degenerate zero-norm document: present it as empty, matching the
		// vector.Zero() that Vectorize returns.
		ws.entries = ws.entries[:0]
	}
	//dmtvet:allow scratchescape visit is consume-only by documented contract; the entries slice is scored or copied before the call returns
	visit(ws.entries)
}

// termsPacked runs the parallel phase of VectorizeBatch on a pooled
// workspace and copies the surviving stems into one compact arena with
// n+1 offsets delimiting the terms. The copy detaches the result from the
// workspace (which goes back to the pool) and is the only per-document
// allocation of the phase — two slices instead of one string per term.
func (p *Preprocessor) termsPacked(text string) ([]byte, []int32) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(text)
	p.terms(ws)
	if len(ws.spans) == 0 {
		return nil, nil
	}
	size := 0
	for _, sp := range ws.spans {
		size += sp.end - sp.start
	}
	arena := make([]byte, 0, size)
	offs := make([]int32, 1, len(ws.spans)+1)
	for _, sp := range ws.spans {
		arena = append(arena, ws.arena[sp.start:sp.end]...)
		offs = append(offs, int32(len(arena)))
	}
	return arena, offs
}

// vectorizeTermBytes is the serial tail of VectorizeBatch: feature id
// assignment over a packed term arena (the byte path — interned terms
// allocate nothing), then document-frequency bookkeeping, weighting and
// normalization.
func (p *Preprocessor) vectorizeTermBytes(arena []byte, offs []int32) *vector.Sparse {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.ids = ws.ids[:0]
	for i := 0; i+1 < len(offs); i++ {
		ws.ids = append(ws.ids, p.featureIDBytes(arena[offs[i]:offs[i+1]]))
	}
	return p.finishVector(ws)
}

// weigh turns the feature ids in ws.ids into the final weighted entries in
// ws.entries: sort-then-accumulate term counts (replacing the historical
// map[int32]float64 + FromMap sort — identical output, since duplicate ids
// become exact integer counts either way and entries emerge in ascending
// id order), document-frequency bookkeeping, weighting, normalization.
// Returns false in the degenerate Normalize case (zero norm), where the
// caller must present the document as the zero vector.
func (p *Preprocessor) weigh(ws *workspace) bool {
	slices.Sort(ws.ids)
	ws.entries = ws.entries[:0]
	for i := 0; i < len(ws.ids); {
		j := i + 1
		for j < len(ws.ids) && ws.ids[j] == ws.ids[i] {
			j++
		}
		ws.entries = append(ws.entries, vector.Entry{Index: ws.ids[i], Value: float64(j - i)})
		i = j
	}

	// Document-frequency bookkeeping holds p.mu only long enough to bump
	// the counters and snapshot the raw df values; the weighting math runs
	// outside so concurrent shards stop serializing on the mutex. The
	// deferred math is bit-identical to computing it under the lock:
	// float64(1+df) == 1+float64(df) for any df below 2^52, so the Log
	// sees the same operands either way.
	p.mu.Lock()
	p.docCount++
	for _, e := range ws.entries {
		p.docFreq[e.Index]++
	}
	docCount, weighting := p.docCount, p.opts.Weighting
	if weighting == TFIDF {
		ws.idf = ws.idf[:0]
		for _, e := range ws.entries {
			ws.idf = append(ws.idf, float64(p.docFreq[e.Index]))
		}
	}
	p.mu.Unlock()

	switch weighting {
	case LogTF:
		for i := range ws.entries {
			ws.entries[i].Value = 1 + math.Log(ws.entries[i].Value)
		}
	case TFIDF:
		// An idf of 0 (term in every document) zeroes the weight; drop
		// such entries exactly as FromMap dropped explicit zeros.
		numer := float64(1 + docCount)
		kept := ws.entries[:0]
		for i := range ws.entries {
			idf := math.Log(numer / (1 + ws.idf[i]))
			if v := ws.entries[i].Value * idf; v != 0 {
				kept = append(kept, vector.Entry{Index: ws.entries[i].Index, Value: v})
			}
		}
		ws.entries = kept
	}

	if p.opts.Normalize {
		var sum float64
		for _, e := range ws.entries {
			sum += e.Value * e.Value
		}
		n := math.Sqrt(sum)
		if n == 0 {
			return false
		}
		inv := 1 / n
		for i := range ws.entries {
			ws.entries[i].Value *= inv
		}
	}
	return true
}

// finishVector materializes ws's weighted entries as a fresh sparse
// vector; only the returned vector's entry slice is allocated.
func (p *Preprocessor) finishVector(ws *workspace) *vector.Sparse {
	if !p.weigh(ws) {
		return vector.Zero()
	}
	out := make([]vector.Entry, len(ws.entries))
	copy(out, ws.entries)
	v, err := vector.FromEntries(out)
	if err != nil {
		// Unreachable: ids are sorted and deduplicated above.
		panic(fmt.Sprintf("textproc: internal vector invariant broken: %v", err))
	}
	return v
}

// FNV-1a constants, inlined so feature hashing allocates no hash.Hash32
// per term. The stream must stay byte-compatible with hash/fnv's New32a,
// which the tests pin.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// featureID maps a term to its feature id: hashed when HashDim is set,
// lexicon-assigned otherwise.
func (p *Preprocessor) featureID(term string) int32 {
	if p.opts.HashDim > 0 {
		h := uint32(fnvOffset32)
		for i := 0; i < len(term); i++ {
			h ^= uint32(term[i])
			h *= fnvPrime32
		}
		return int32(h % uint32(p.opts.HashDim))
	}
	return p.lexicon.ID(term)
}

// featureIDBytes is featureID for a term still living in workspace bytes;
// it allocates only when a lexicon-mode term is new.
func (p *Preprocessor) featureIDBytes(term []byte) int32 {
	if p.opts.HashDim > 0 {
		h := uint32(fnvOffset32)
		for _, c := range term {
			h ^= uint32(c)
			h *= fnvPrime32
		}
		return int32(h % uint32(p.opts.HashDim))
	}
	return p.lexicon.IDBytes(term)
}

// packedTerms carries one document's filtered, stemmed terms between the
// parallel and serial phases of VectorizeBatch: term i is
// arena[offs[i]:offs[i+1]].
type packedTerms struct {
	arena []byte
	offs  []int32
}

// VectorizeBatch vectorizes texts with the term-extraction stage
// (tokenize, filter, stem — the bulk of preprocessing cost) fanned out
// over parallel workers (see runner.Workers for the convention), while
// feature id assignment and document-frequency updates run serially in
// input order. Terms travel between the phases as packed byte arenas, so
// the serial tail rides the same byte-path feature ids as the single-doc
// fast path and the hand-off costs two slices per document instead of one
// string per term. The returned vectors are identical to calling
// Vectorize on each text in order, at any worker count: term extraction
// is a pure function of the text, and everything order-sensitive
// (new-word id assignment, docFreq/IDF accumulation) stays sequential.
func (p *Preprocessor) VectorizeBatch(texts []string, parallel int) []*vector.Sparse {
	packed, _ := runner.Map(len(texts), parallel, func(i int) (packedTerms, error) {
		arena, offs := p.termsPacked(texts[i])
		return packedTerms{arena: arena, offs: offs}, nil
	})
	out := make([]*vector.Sparse, len(texts))
	for i := range texts {
		out[i] = p.vectorizeTermBytes(packed[i].arena, packed[i].offs)
	}
	return out
}

// TopTerms returns the n highest-weighted terms of v, resolved through the
// lexicon, in descending weight order. Useful for explaining predictions.
func (p *Preprocessor) TopTerms(v *vector.Sparse, n int) []string {
	entries := append([]vector.Entry(nil), v.Entries()...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value > entries[j].Value
		}
		return entries[i].Index < entries[j].Index
	})
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]string, 0, n)
	for _, e := range entries[:n] {
		if w := p.lexicon.Word(e.Index); w != "" {
			out = append(out, w)
		}
	}
	return out
}
