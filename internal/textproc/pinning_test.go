package textproc

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/vector"
)

// This file pins the pooled fast path byte-identical to the historical
// (seed) implementation of tokenize -> filter/stem -> vectorize, kept here
// verbatim as the reference. If the fast path ever drifts — a different
// accumulation order, a dropped edge case — these tests fail on exact
// comparison, not a tolerance.

// refTokenize is the seed Tokenize (strings.Builder per token).
func refTokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	hasLetter := false
	flush := func() {
		if cur.Len() > 0 {
			if hasLetter {
				tokens = append(tokens, strings.TrimRight(cur.String(), "'"))
			}
			cur.Reset()
			hasLetter = false
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			cur.WriteRune(unicode.ToLower(r))
			hasLetter = true
		case unicode.IsDigit(r):
			cur.WriteRune(r)
		case r == '\'':
			if cur.Len() > 0 {
				cur.WriteRune(r)
			}
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// refStem is the seed string stemmer: the Porter steps on a private copy
// of a lower-case ASCII word of at least 3 bytes, anything else unchanged.
func refStem(word string) string {
	if len(word) < 3 || strings.IndexFunc(word, func(r rune) bool { return r < 'a' || r > 'z' }) >= 0 {
		return word
	}
	return string(stemASCII([]byte(word)))
}

// refTerms is the seed Terms over refTokenize.
func refTerms(p *Preprocessor, text string) []string {
	tokens := refTokenize(text)
	out := tokens[:0]
	for _, t := range tokens {
		if p.stop[t] {
			continue
		}
		if p.sensitive[t] {
			continue
		}
		t = strings.ReplaceAll(t, "'", "")
		s := refStem(t)
		if len(s) < minWordLen {
			continue
		}
		if p.sensitive[s] {
			continue
		}
		out = append(out, s)
	}
	return out
}

// refFeatureID is the seed featureID (a fresh fnv.New32a per term).
func refFeatureID(p *Preprocessor, term string) int32 {
	if p.opts.HashDim > 0 {
		h := fnv.New32a()
		h.Write([]byte(term))
		return int32(h.Sum32() % uint32(p.opts.HashDim))
	}
	return p.lexicon.ID(term)
}

// refVectorize is the seed vectorizeTerms: map accumulation, FromMap sort,
// vector-method normalization.
func refVectorize(p *Preprocessor, text string) *vector.Sparse {
	terms := refTerms(p, text)
	counts := make(map[int32]float64, len(terms))
	for _, t := range terms {
		counts[refFeatureID(p, t)]++
	}
	p.mu.Lock()
	p.docCount++
	for id := range counts {
		p.docFreq[id]++
	}
	docCount, weighting := p.docCount, p.opts.Weighting
	var idf map[int32]float64
	if weighting == TFIDF {
		idf = make(map[int32]float64, len(counts))
		for id := range counts {
			idf[id] = math.Log(float64(1+docCount) / float64(1+p.docFreq[id]))
		}
	}
	p.mu.Unlock()
	for id, tf := range counts {
		switch weighting {
		case LogTF:
			counts[id] = 1 + math.Log(tf)
		case TFIDF:
			counts[id] = tf * idf[id]
		}
	}
	v := vector.FromMap(counts)
	if p.opts.Normalize {
		v = v.Normalize()
	}
	return v
}

// pinCorpus exercises apostrophes, possessives, digits, unicode letters
// and digits, stop words, stemming families, repeats and empty documents.
var pinCorpus = []string{
	"The quick brown foxes are jumping over the lazy dogs' kennels",
	"don't can't won't it's the dogs' dog's 'quoted' word''s",
	"running runner runs ran relational conditional rational",
	"caresses ponies ties caress cats feed agreed plastered bled motoring sing",
	"x2 3d abc123 42 007 naïve café süß Привет мир 東京タワー",
	"\uFEFF１２３ ４５abc tamaño jalapeño",
	"generalization generalizations oscillators universities utilities",
	"a ab abc abcd",
	"",
	"   \t\n  ",
	"'''",
	"secret classified secret SECRET secrets",
	strings.Repeat("hopefulness electricity electrical ", 7),
}

func pinOptions() []Options {
	return []Options{
		{Weighting: TermFrequency, Normalize: true},
		{Weighting: TermFrequency, Normalize: false},
		{Weighting: LogTF, Normalize: true},
		{Weighting: TFIDF, Normalize: true},
		{Weighting: TFIDF, Normalize: false},
		{Weighting: TermFrequency, Normalize: true, HashDim: 512},
		{Weighting: TFIDF, Normalize: true, HashDim: 64}, // tiny dim forces collisions
	}
}

func TestTokenizePinnedToReference(t *testing.T) {
	for _, doc := range pinCorpus {
		got := tokens(doc)
		want := refTokenize(doc)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("tokenize(%q) = %q, reference %q", doc, got, want)
		}
	}
}

func TestTermsPinnedToReference(t *testing.T) {
	for oi, opts := range pinOptions() {
		p := NewPreprocessor(nil, opts)
		p.AddSensitiveWords("secret", "classified")
		for _, doc := range pinCorpus {
			got := termsOf(p, doc)
			want := refTerms(p, doc)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("opts %d: terms(%q) = %q, reference %q", oi, doc, got, want)
			}
		}
	}
}

// TestVectorizePinnedToReference feeds the same corpus through the fast
// path and the seed implementation on separate but identically configured
// preprocessors; every vector must be exactly Equal (indices and float64
// bit patterns), across every weighting/normalization/hashing mode.
func TestVectorizePinnedToReference(t *testing.T) {
	for oi, opts := range pinOptions() {
		fast := NewPreprocessor(nil, opts)
		ref := NewPreprocessor(nil, opts)
		fast.AddSensitiveWords("secret", "classified")
		ref.AddSensitiveWords("secret", "classified")
		// Two passes so document-frequency state (TFIDF) diverges from
		// the trivial first-doc case.
		for pass := 0; pass < 2; pass++ {
			for di, doc := range pinCorpus {
				got := fast.Vectorize(doc)
				want := refVectorize(ref, doc)
				if !got.Equal(want) {
					t.Fatalf("opts %d pass %d doc %d (%q):\nfast %v\nref  %v", oi, pass, di, doc, got, want)
				}
			}
		}
		if opts.HashDim == 0 && fast.Lexicon().Size() != ref.Lexicon().Size() {
			t.Errorf("opts %d: lexicon sizes diverged: %d != %d", oi, fast.Lexicon().Size(), ref.Lexicon().Size())
		}
	}
}

// TestVectorizeBatchPinnedToFastPath: the batch path (string terms +
// shared accumulate tail) equals per-document Vectorize.
func TestVectorizeBatchPinnedToFastPath(t *testing.T) {
	for _, opts := range pinOptions() {
		batch := NewPreprocessor(nil, opts)
		serial := NewPreprocessor(nil, opts)
		got := batch.VectorizeBatch(pinCorpus, 4)
		for i, doc := range pinCorpus {
			want := serial.Vectorize(doc)
			if !got[i].Equal(want) {
				t.Fatalf("opts %+v doc %d: batch %v != serial %v", opts, i, got[i], want)
			}
		}
	}
}

// TestStemBytesMatchesStem: the in-place byte stemmer is the seed string
// stemmer, including the non-ASCII and short-word bailouts.
func TestStemBytesMatchesStem(t *testing.T) {
	words := []string{
		"", "a", "ab", "abc", "caresses", "ponies", "relational", "hopefulness",
		"electricity", "oscillators", "feudalism", "naïve", "abc123", "DON",
		"sky", "happy", "controll", "roll", "generalization", "triplicate",
	}
	for _, w := range words {
		b := []byte(w)
		got := string(StemBytes(b))
		if want := refStem(w); got != want {
			t.Errorf("StemBytes(%q) = %q, reference %q", w, got, want)
		}
	}
}

// TestFeatureIDPinsFNV pins the inlined FNV-1a against hash/fnv and
// against hard-coded known values, so the hashed feature space can never
// silently shift (peers exchange models whose indices must agree).
func TestFeatureIDPinsFNV(t *testing.T) {
	p := NewPreprocessor(nil, Options{HashDim: 4096})
	terms := []string{"quick", "brown", "fox", "jump", "melodi", "guitar", "a", ""}
	for _, term := range terms {
		h := fnv.New32a()
		h.Write([]byte(term))
		want := int32(h.Sum32() % 4096)
		if got := p.featureIDBytes([]byte(term)); got != want {
			t.Errorf("featureIDBytes(%q) = %d, fnv reference %d", term, got, want)
		}
	}
	// Hard-coded pins: these exact ids are baked into any model trained
	// with HashDim 4096 — they must never change.
	for term, want := range map[string]int32{
		"quick":  956,
		"brown":  1839,
		"fox":    846,
		"guitar": 3855,
	} {
		if got := p.featureIDBytes([]byte(term)); got != want {
			t.Errorf("featureIDBytes(%q) = %d, pinned %d", term, got, want)
		}
	}
}

// TestTokenizeEmptyAndDegenerate keeps the historical nil/empty contracts.
func TestTokenizeEmptyAndDegenerate(t *testing.T) {
	if got := tokens(""); got != nil {
		t.Errorf("tokenize(\"\") = %v, want nil", got)
	}
	if got := tokens("42 7 1999"); got != nil {
		t.Errorf("tokenize(numbers) = %v, want nil (no letters)", got)
	}
	if got := sort.SearchStrings(tokens("b a c"), "a"); got != 1 {
		// tokens keep document order, not sorted order
		_ = got
	}
}
