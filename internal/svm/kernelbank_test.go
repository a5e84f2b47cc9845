package svm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/vector"
)

// randKernelBank builds a per-tag KernelModel bank whose support vectors
// come from one pool of distinct vectors. share is the probability that a
// tag's next SV is drawn from the pool (a pointer other tags hold too)
// instead of being a fresh private vector: 1 is a fully shared bank (the
// CEMPaR regional shape), 0 shares nothing. Tag "tag00" never gets an SV,
// and a pool vector may repeat inside one tag, as pooled cascades produce.
func randKernelBank(rng *rand.Rand, k Kernel, tags, pool int, share float64, gen func() *vector.Sparse) map[string]*KernelModel {
	shared := make([]*vector.Sparse, pool)
	for i := range shared {
		shared[i] = gen()
	}
	bank := make(map[string]*KernelModel, tags)
	for t := 0; t < tags; t++ {
		m := &KernelModel{Kernel: k, Bias: rng.NormFloat64()}
		for i := rng.Intn(2 * pool); t > 0 && i > 0; i-- {
			x := shared[rng.Intn(pool)]
			if rng.Float64() >= share {
				x = gen()
			}
			m.SVs = append(m.SVs, SupportVector{X: x, Coeff: rng.NormFloat64()})
		}
		m.Precompute()
		bank[fmt.Sprintf("tag%02d", t)] = m
	}
	return bank
}

// sameFloat is float64 bit equality, except that any NaN equals any NaN:
// which operand's payload a NaN+NaN add propagates is the compiler's
// register choice, not something either side of the pin controls (the
// poly/linear kernels can produce NaNs from overflow-scale inputs; RBF's
// guard turns them into 0).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkBankAgainstDecision pins every tag's bank decision to per-tag
// Decision and to the seed reference on float64 bit equality.
func checkBankAgainstDecision(t *testing.T, name string, bank map[string]*KernelModel, b *KernelBank, x *vector.Sparse, dst, scratch []float64) {
	t.Helper()
	got := b.DecisionsInto(x, dst, scratch)
	if len(got) != len(bank) {
		t.Fatalf("%s: %d decisions for a %d-tag bank", name, len(got), len(bank))
	}
	for i, tag := range slices.Sorted(maps.Keys(bank)) {
		m := bank[tag]
		if want := m.Decision(x); !sameFloat(got[i], want) {
			t.Fatalf("%s tag %s: bank %v != Decision %v", name, tag, got[i], want)
		}
		if want := refKernelDecision(m, x); !sameFloat(got[i], want) {
			t.Fatalf("%s tag %s: bank %v != reference %v", name, tag, got[i], want)
		}
	}
}

// TestKernelBankBitIdentical is the kernel-bank identity pin: over random
// banks of every kernel kind and every degree of SV sharing, DecisionsInto
// equals per-tag Decision bit for bit — including a tag with no SVs, the
// empty query, query features past the bank's largest id, and
// overflow-scale values that drive the RBF distance to Inf-Inf.
func TestKernelBankBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kernels := []Kernel{
		{Kind: KernelRBF, Gamma: 1},
		{Kind: KernelRBF, Gamma: 0.25},
		{Kind: KernelRBF}, // Gamma 0 defaults to 1
		{Kind: KernelLinear},
		{Kind: KernelPoly, Gamma: 0.5, Coef0: 1, Degree: 3},
		{Kind: KernelPoly}, // Gamma and Degree defaults
	}
	small := func() *vector.Sparse { return randSparse(rng, 120, 1+rng.Intn(25)) }
	// huge mixes ordinary vectors with ones whose squared norm and dots
	// overflow to Inf, the inputs the NaN guard exists for.
	huge := func() *vector.Sparse {
		x := randSparse(rng, 40, 1+rng.Intn(10))
		if rng.Intn(2) == 0 {
			x = x.Scale(1e200)
		}
		return x
	}
	for _, k := range kernels {
		for _, share := range []float64{1, 0.5, 0} {
			name := fmt.Sprintf("%+v share %.1f", k, share)
			bank := randKernelBank(rng, k, 1+rng.Intn(12), 30, share, small)
			b, err := NewKernelBank(bank)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dst := make([]float64, 0, b.NumTags())
			scratch := make([]float64, b.NumSVs())
			for q := 0; q < 8; q++ {
				// Queries reach past the bank's largest feature id (120).
				checkBankAgainstDecision(t, name, bank, b, randSparse(rng, 200, 1+rng.Intn(40)), dst, scratch)
			}
			checkBankAgainstDecision(t, name+" empty query", bank, b, vector.Zero(), dst, scratch)
			beyond, _ := vector.New([]int32{500, 900}, []float64{1, -2})
			checkBankAgainstDecision(t, name+" query beyond bank", bank, b, beyond, dst, scratch)
			// Undersized buffers are replaced, not overrun.
			checkBankAgainstDecision(t, name+" nil buffers", bank, b, small(), nil, nil)
		}
		bank := randKernelBank(rng, k, 6, 12, 0.7, huge)
		b, err := NewKernelBank(bank)
		if err != nil {
			t.Fatalf("%+v overflow: %v", k, err)
		}
		guarded := false
		for q := 0; q < 8; q++ {
			x := huge()
			checkBankAgainstDecision(t, fmt.Sprintf("%+v overflow", k), bank, b, x, nil, nil)
			for _, m := range bank {
				for _, sv := range m.SVs {
					guarded = guarded || math.IsNaN(sv.X.SquaredNorm()+x.SquaredNorm()-2*sv.X.Dot(x))
				}
			}
		}
		if !guarded {
			t.Fatalf("%+v overflow: no (sv, query) pair reached the Inf-Inf guard", k)
		}
	}
}

// TestKernelBankInternsSharedSVs: a fully shared bank holds one kernel-row
// slot per distinct pointer, however many tags reference it.
func TestKernelBankInternsSharedSVs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const pool = 20
	bank := randKernelBank(rng, Kernel{Kind: KernelRBF, Gamma: 1}, 8, pool, 1,
		func() *vector.Sparse { return randSparse(rng, 64, 10) })
	b, err := NewKernelBank(bank)
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, m := range bank {
		refs += len(m.SVs)
	}
	if b.NumSVs() > pool || refs <= pool {
		t.Fatalf("%d kernel-row slots for %d references over a %d-vector pool", b.NumSVs(), refs, pool)
	}
}

// TestKernelBankConcurrent scores one bank from several goroutines, as a
// super-peer's bank is read by every answer in flight. The bank must be
// immutable after construction: under -race, any write to its memory from
// DecisionsInto is a data race between the scorers.
func TestKernelBankConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bank := randKernelBank(rng, Kernel{Kind: KernelRBF, Gamma: 1}, 6, 12, 0.7,
		func() *vector.Sparse { return randSparse(rng, 64, 10) })
	b, err := NewKernelBank(bank)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*vector.Sparse, 8)
	want := make([][]float64, len(queries))
	for i := range queries {
		queries[i] = randSparse(rng, 80, 12)
		want[i] = b.DecisionsInto(queries[i], nil, nil)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst, scratch := make([]float64, b.NumTags()), make([]float64, b.NumSVs())
			for i, x := range queries {
				if dst = b.DecisionsInto(x, dst, scratch); !slices.Equal(dst, want[i]) {
					t.Errorf("query %d: concurrent decisions %v, serial %v", i, dst, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestKernelBankEmpty: the empty bank is valid and scores no tags.
func TestKernelBankEmpty(t *testing.T) {
	b, err := NewKernelBank(nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := vector.New([]int32{0, 3}, []float64{1, 2})
	if got := b.DecisionsInto(x, nil, nil); len(got) != 0 || b.NumTags() != 0 || b.NumSVs() != 0 {
		t.Fatalf("empty bank: %d decisions, %d tags, %d SVs", len(got), b.NumTags(), b.NumSVs())
	}
}

// TestNewKernelBankRejects: a bank cannot mix kernels or score a kind the
// kernel switch does not know.
func TestNewKernelBankRejects(t *testing.T) {
	x := vector.FromMap(map[int32]float64{1: 1})
	model := func(k Kernel) *KernelModel {
		return &KernelModel{Kernel: k, SVs: []SupportVector{{X: x, Coeff: 1}}}
	}
	rbf := Kernel{Kind: KernelRBF, Gamma: 1}
	for name, bank := range map[string]map[string]*KernelModel{
		"mixed kinds":   {"a": model(rbf), "b": model(Kernel{Kind: KernelLinear})},
		"mixed gamma":   {"a": model(rbf), "b": model(Kernel{Kind: KernelRBF, Gamma: 2})},
		"kind past end": {"a": model(Kernel{Kind: KernelPoly + 1})},
		"negative kind": {"a": model(Kernel{Kind: -1})},
		"nil model":     {"a": nil},
		"nil vector":    {"a": {Kernel: rbf, SVs: []SupportVector{{Coeff: 1}}}},
	} {
		if b, err := NewKernelBank(bank); err == nil || b != nil {
			t.Errorf("%s: accepted (bank %v, err %v)", name, b, err)
		}
	}
}
