//go:build !race

package realnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/svm"
)

// Allocation budget for the receive path (build-gated out under -race,
// which instruments allocations).

// benchShapedSet is a published set of the benchmark's shape: 16 tags over
// the hashed feature space, 967 non-zero weights each (15,472 in all).
func benchShapedSet() *ModelSet {
	rng := rand.New(rand.NewSource(1))
	const tags, perTag = 16, 967
	ms := &ModelSet{
		Models:   make(map[string]*svm.SparseModel, tags),
		Platt:    make(map[string]svm.PlattParams, tags),
		Accuracy: make(map[string]float64, tags),
	}
	for t := 0; t < tags; t++ {
		w := make([]float64, maxModelDim)
		for nnz := 0; nnz < perTag; {
			if i := rng.Intn(len(w)); w[i] == 0 {
				w[i] = rng.NormFloat64()
				nnz++
			}
		}
		tag := fmt.Sprintf("tag%02d", t)
		ms.Models[tag] = (&svm.LinearModel{W: w, Bias: rng.NormFloat64()}).Sparse()
		ms.Platt[tag] = svm.PlattParams{A: -2, B: 0.1}
		ms.Accuracy[tag] = 0.8
	}
	return ms
}

// TestGenerationReceiveAllocBudget pins what one received generation costs
// its receiver: decoding the frame, structural validation and building the
// score matrix allocate at most 1 MiB together for a bench-shaped set.
// Nothing on the path is sized by the claimed dimension times the tag
// count; a dense decode of the same set allocated about 9 MB.
func TestGenerationReceiveAllocBudget(t *testing.T) {
	payload, err := encodeGeneration(Generation{Seq: 1, Origin: "10.0.0.1:7001", Set: benchShapedSet()})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		g, err := decodeGeneration(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateModelSet(g.Set); err != nil {
			t.Fatal(err)
		}
		if n := len(g.Set.Tags()); n != 16 {
			t.Fatalf("fused %d tags, want 16", n)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("receive path: %d bytes per generation of %d payload bytes", per, len(payload))
	if per > 1<<20 {
		t.Errorf("receive path allocated %d bytes per generation, budget 1 MiB", per)
	}
}
