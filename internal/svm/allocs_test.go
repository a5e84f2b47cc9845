//go:build !race

package svm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// Allocation-regression pins for the inference hot path (build-gated out
// under -race, which instruments allocations).

// TestFusedScoreIntoZeroAlloc: steady-state fused scoring into a reused
// buffer allocates nothing.
func TestFusedScoreIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bank := make(map[string]*LinearModel, 16)
	for i := 0; i < 16; i++ {
		w := make([]float64, 512)
		for j := 0; j < 64; j++ {
			w[rng.Intn(512)] = rng.NormFloat64()
		}
		bank[fmt.Sprintf("t%02d", i)] = &LinearModel{W: w, Bias: 0.1}
	}
	f := NewFusedLinear(bank)
	entries := randSparse(rng, 512, 40).Entries()
	buf := make([]float64, len(f.Tags()))
	got := testing.AllocsPerRun(200, func() { buf = f.ScoreEntriesInto(entries, buf) })
	if got > 0 {
		t.Errorf("ScoreEntriesInto: %.1f allocs/op, want 0", got)
	}
}

// TestBlockedScoreIntoZeroAlloc: the blocked layout's streaming terminal
// allocates nothing once the padded scratch has been grown, on a tag
// count with a zero-padded tail.
func TestBlockedScoreIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bank := make(map[string]*LinearModel, 12)
	for i := 0; i < 12; i++ {
		w := make([]float64, 512)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		bank[fmt.Sprintf("t%02d", i)] = &LinearModel{W: w, Bias: 0.1}
	}
	f := NewFusedLinearLayout(bank, LayoutBlocked)
	if f.Layout() != LayoutBlocked {
		t.Fatalf("layout %v, want blocked", f.Layout())
	}
	entries := randSparse(rng, 512, 40).Entries()
	buf := f.ScoreEntriesInto(entries, nil) // grow the padded scratch once
	got := testing.AllocsPerRun(200, func() { buf = f.ScoreEntriesInto(entries, buf) })
	if got > 0 {
		t.Errorf("blocked ScoreEntriesInto: %.1f allocs/op, want 0", got)
	}
}

// TestKernelDecisionZeroAlloc: the RBF decision with precomputed norms
// allocates nothing per query.
func TestKernelDecisionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := &KernelModel{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}}
	for i := 0; i < 32; i++ {
		m.SVs = append(m.SVs, SupportVector{X: randSparse(rng, 256, 30), Coeff: rng.NormFloat64()})
	}
	m.Precompute()
	doc := randSparse(rng, 256, 40)
	got := testing.AllocsPerRun(200, func() { m.Decision(doc) })
	if got > 0 {
		t.Errorf("Decision: %.1f allocs/op, want 0", got)
	}
}

// TestKernelBankZeroAlloc: scoring a whole kernel bank into a reused
// result buffer and kernel-row scratch allocates nothing per query.
func TestKernelBankZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bank := randKernelBank(rng, Kernel{Kind: KernelRBF, Gamma: 1}, 16, 64, 1,
		func() *vector.Sparse { return randSparse(rng, 256, 30) })
	b, err := NewKernelBank(bank)
	if err != nil {
		t.Fatal(err)
	}
	doc := randSparse(rng, 256, 40)
	dst := make([]float64, b.NumTags())
	scratch := make([]float64, b.NumSVs())
	got := testing.AllocsPerRun(200, func() { dst = b.DecisionsInto(doc, dst, scratch) })
	if got > 0 {
		t.Errorf("DecisionsInto: %.1f allocs/op, want 0", got)
	}
}
