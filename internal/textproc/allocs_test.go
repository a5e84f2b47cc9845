//go:build !race

package textproc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/svm"
	"repro/internal/vector"
)

// Allocation-regression pins for the pooled preprocessing fast path.
// The race detector instruments allocations, so this file is build-gated
// out under -race rather than skipped at run time.

const allocDoc = "the quick brown foxes are jumping over the lazy dogs while " +
	"photographers adjusted their cameras and the conductor rehearsed a " +
	"difficult symphony movement before tonight's concert performance"

// TestVectorizeAllocBudget pins the steady-state Vectorize cost at 2
// allocations: the returned vector's entry slice and the Sparse header.
// Everything else — token arena, spans, stemming, term counting — runs on
// the pooled workspace.
func TestVectorizeAllocBudget(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"lexicon/tf", Options{Normalize: true}},
		{"lexicon/tfidf", Options{Weighting: TFIDF, Normalize: true}},
		{"hashed/tf", Options{Normalize: true, HashDim: 4096}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p := NewPreprocessor(nil, mode.opts)
			p.Vectorize(allocDoc) // warm lexicon, docFreq and pools
			got := testing.AllocsPerRun(200, func() { p.Vectorize(allocDoc) })
			if got > 2 {
				t.Errorf("Vectorize: %.1f allocs/op, budget 2", got)
			}
		})
	}
}

// TestVectorizeIntoZeroAlloc: the streaming terminal skips the two
// materialization allocations Vectorize pays, so a warm steady state
// allocates nothing at all.
func TestVectorizeIntoZeroAlloc(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"lexicon/tf", Options{Normalize: true}},
		{"lexicon/tfidf", Options{Weighting: TFIDF, Normalize: true}},
		{"hashed/tf", Options{Normalize: true, HashDim: 4096}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			p := NewPreprocessor(nil, mode.opts)
			p.Vectorize(allocDoc) // warm lexicon, docFreq and pools
			visit := func(entries []vector.Entry) {}
			got := testing.AllocsPerRun(200, func() { p.VectorizeInto(allocDoc, visit) })
			if got > 0 {
				t.Errorf("VectorizeInto: %.1f allocs/op, want 0", got)
			}
		})
	}
}

// TestStreamingScoreAllocBudget pins the full streaming local score path —
// VectorizeInto feeding FusedLinear.ScoreEntriesInto through the blocked
// layout — at ≤2 allocs/op end to end (the ISSUE target; a warm run is 0).
func TestStreamingScoreAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 4096
	bank := make(map[string]*svm.SparseModel, 12)
	for i := 0; i < 12; i++ {
		w := make([]float64, dim)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		bank[fmt.Sprintf("t%02d", i)] = (&svm.LinearModel{W: w, Bias: 0.1}).Sparse()
	}
	fused := svm.NewFusedSparse(bank, svm.LayoutBlocked)
	p := NewPreprocessor(nil, Options{Normalize: true, HashDim: dim})
	var scores []float64
	visit := func(entries []vector.Entry) { scores = fused.ScoreEntriesInto(entries, scores) }
	p.VectorizeInto(allocDoc, visit) // warm pools and score scratch
	got := testing.AllocsPerRun(200, func() { p.VectorizeInto(allocDoc, visit) })
	if got > 2 {
		t.Errorf("streaming score path: %.1f allocs/op, budget 2", got)
	}
}

// TestVectorizeBatchAllocBudget: the packed-arena hand-off costs two
// slices per document in the parallel phase plus the usual two
// materialization allocations in the serial tail (runner adds a constant
// per-batch overhead, amortized out by the 8-doc batch).
func TestVectorizeBatchAllocBudget(t *testing.T) {
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = allocDoc
	}
	p := NewPreprocessor(nil, Options{Normalize: true})
	p.VectorizeBatch(texts, 1) // warm lexicon, docFreq and pools
	const perDoc = 4           // arena + offsets + entry slice + Sparse header
	budget := float64(len(texts)*perDoc + 8)
	got := testing.AllocsPerRun(50, func() { p.VectorizeBatch(texts, 1) })
	if got > budget {
		t.Errorf("VectorizeBatch: %.1f allocs/op for %d docs, budget %.0f", got, len(texts), budget)
	}
}

// TestTokenizeAllocBudget: tokenizing into a warm workspace allocates
// nothing — no per-token string, builder or trim churn.
func TestTokenizeAllocBudget(t *testing.T) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	ws.tokenize(allocDoc)
	got := testing.AllocsPerRun(200, func() { ws.tokenize(allocDoc) })
	if got > 0 {
		t.Errorf("tokenize: %.1f allocs/op for %d tokens, want 0", got, len(ws.spans))
	}
}

// TestTermsAllocBudget: filtering and stemming run in place on the
// workspace, so they allocate nothing either.
func TestTermsAllocBudget(t *testing.T) {
	p := NewPreprocessor(nil, Options{})
	ws := getWorkspace()
	defer putWorkspace(ws)
	got := testing.AllocsPerRun(200, func() {
		ws.tokenize(allocDoc)
		p.terms(ws)
	})
	if got > 0 {
		t.Errorf("terms: %.1f allocs/op for %d terms, want 0", got, len(ws.spans))
	}
}

// TestStemBytesZeroAlloc: in-place stemming allocates nothing, including
// on rules that rewrite suffixes.
func TestStemBytesZeroAlloc(t *testing.T) {
	words := [][]byte{
		[]byte("caresses"), []byte("motoring"), []byte("happy"),
		[]byte("relational"), []byte("generalization"), []byte("electricity"),
	}
	scratch := make([]byte, 32)
	got := testing.AllocsPerRun(200, func() {
		for _, w := range words {
			StemBytes(append(scratch[:0], w...))
		}
	})
	if got > 0 {
		t.Errorf("StemBytes: %.1f allocs/op, want 0", got)
	}
}

// TestWorkspaceScalesWithDocument: a long document must not break the
// budget either (arena growth is retained across calls).
func TestWorkspaceScalesWithDocument(t *testing.T) {
	long := strings.Repeat(allocDoc+" ", 50)
	p := NewPreprocessor(nil, Options{Normalize: true})
	p.Vectorize(long)
	got := testing.AllocsPerRun(50, func() { p.Vectorize(long) })
	if got > 2 {
		t.Errorf("Vectorize(long): %.1f allocs/op, budget 2", got)
	}
}
