package svm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

// gaussianBlobs generates two linearly separable Gaussian clouds in dim
// dimensions, centered at ±sep along every axis.
func gaussianBlobs(rng *rand.Rand, n, dim int, sep float64) []Example {
	data := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		y := 1.0
		if i%2 == 1 {
			y = -1
		}
		m := make(map[int32]float64, dim)
		for d := 0; d < dim; d++ {
			m[int32(d)] = y*sep + rng.NormFloat64()
		}
		data = append(data, Example{X: vector.FromMap(m), Y: y})
	}
	return data
}

// xorData generates the classic non-linearly-separable XOR pattern.
func xorData(rng *rand.Rand, n int) []Example {
	data := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		x0 := float64(rng.Intn(2))*2 - 1
		x1 := float64(rng.Intn(2))*2 - 1
		y := x0 * x1
		m := map[int32]float64{
			0: x0 + 0.15*rng.NormFloat64(),
			1: x1 + 0.15*rng.NormFloat64(),
		}
		data = append(data, Example{X: vector.FromMap(m), Y: y})
	}
	return data
}

func TestValidate(t *testing.T) {
	if _, err := TrainLinear(nil, LinearOptions{}); err != ErrNoData {
		t.Errorf("empty data: err = %v, want ErrNoData", err)
	}
	one := []Example{{X: vector.FromMap(map[int32]float64{0: 1}), Y: 1}}
	if _, err := TrainLinear(one, LinearOptions{}); err != ErrOneClass {
		t.Errorf("one class: err = %v, want ErrOneClass", err)
	}
	bad := []Example{
		{X: vector.FromMap(map[int32]float64{0: 1}), Y: 1},
		{X: vector.FromMap(map[int32]float64{0: -1}), Y: 0.5},
	}
	if _, err := TrainLinear(bad, LinearOptions{}); err == nil {
		t.Error("bad label accepted")
	}
}

func TestTrainLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := gaussianBlobs(rng, 200, 5, 2.0)
	test := gaussianBlobs(rng, 200, 5, 2.0)
	m, err := TrainLinear(train, LinearOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, test); acc < 0.95 {
		t.Errorf("linear accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainKernelRBFSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := xorData(rng, 120)
	test := xorData(rng, 120)
	// Linear SVM cannot beat chance by much on XOR.
	lin, err := TrainLinear(train, LinearOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A linear separator can classify at most 3 of the 4 XOR quadrants
	// (~75%); anything near that bound means it did not actually solve it.
	linAcc := Accuracy(lin, test)
	if linAcc > 0.85 {
		t.Errorf("linear XOR accuracy suspiciously high: %v", linAcc)
	}
	// RBF SVM separates it.
	k, err := TrainKernel(train, KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(k, test); acc < 0.9 {
		t.Errorf("rbf XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestTrainKernelLinearKind(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	train := gaussianBlobs(rng, 100, 4, 2.0)
	m, err := TrainKernel(train, KernelOptions{Kernel: Kernel{Kind: KernelLinear}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, train); acc < 0.9 {
		t.Errorf("train accuracy = %v", acc)
	}
	if len(m.SVs) == 0 {
		t.Error("no support vectors retained")
	}
	if len(m.SVs) >= len(train) {
		t.Errorf("all %d examples kept as SVs; expected sparsity", len(m.SVs))
	}
}

func TestKernelEval(t *testing.T) {
	a := vector.FromMap(map[int32]float64{0: 1})
	b := vector.FromMap(map[int32]float64{0: 1})
	c := vector.FromMap(map[int32]float64{1: 1})
	rbf := Kernel{Kind: KernelRBF, Gamma: 0.5}
	if got := rbf.Eval(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("rbf(a,a) = %v, want 1", got)
	}
	want := math.Exp(-0.5 * 2)
	if got := rbf.Eval(a, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("rbf(a,c) = %v, want %v", got, want)
	}
	poly := Kernel{Kind: KernelPoly, Gamma: 1, Coef0: 1, Degree: 2}
	if got := poly.Eval(a, b); math.Abs(got-4) > 1e-12 {
		t.Errorf("poly = %v, want 4", got)
	}
	lin := Kernel{Kind: KernelLinear}
	if got := lin.Eval(a, c); got != 0 {
		t.Errorf("linear = %v, want 0", got)
	}
}

func TestKernelKindString(t *testing.T) {
	if KernelRBF.String() != "rbf" || KernelLinear.String() != "linear" || KernelPoly.String() != "poly" {
		t.Error("kernel names wrong")
	}
	if KernelKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestCascadePreservesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	test := gaussianBlobs(rng, 200, 4, 2.0)
	// Train 8 small models on disjoint chunks and cascade them.
	var models []*KernelModel
	for p := 0; p < 8; p++ {
		chunk := gaussianBlobs(rng, 40, 4, 2.0)
		m, err := TrainKernel(chunk, KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 0.5}, Seed: int64(p)})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	merged, err := Cascade(models, CascadeOptions{
		KernelOptions: KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 0.5}, Seed: 99},
		FanIn:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(merged, test); acc < 0.9 {
		t.Errorf("cascade accuracy = %v, want >= 0.9", acc)
	}
}

func TestCascadeSingleAndEmpty(t *testing.T) {
	if _, err := Cascade(nil, CascadeOptions{}); err != ErrNoData {
		t.Errorf("empty cascade err = %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	m, err := TrainKernel(gaussianBlobs(rng, 30, 3, 2), KernelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cascade([]*KernelModel{m}, CascadeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Error("single-model cascade should return the model unchanged")
	}
}

func TestSupportExamplesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := TrainKernel(gaussianBlobs(rng, 60, 3, 2), KernelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exs := m.SupportExamples()
	if len(exs) != len(m.SVs) {
		t.Fatalf("got %d examples for %d SVs", len(exs), len(m.SVs))
	}
	for i, ex := range exs {
		if ex.Y != 1 && ex.Y != -1 {
			t.Errorf("example %d label %v", i, ex.Y)
		}
		if (ex.Y > 0) != (m.SVs[i].Coeff > 0) {
			t.Errorf("example %d label sign mismatch", i)
		}
	}
}

func TestWireSizes(t *testing.T) {
	lm := &LinearModel{W: []float64{1, 0, 2}, Bias: 0.5}
	if got := lm.WireSize(); got != 16+24 {
		t.Errorf("linear wire size = %d, want 40", got)
	}
	sv := vector.FromMap(map[int32]float64{0: 1, 1: 1})
	km := &KernelModel{SVs: []SupportVector{{X: sv, Coeff: 1}}}
	want := 32 + sv.WireSize() + 8
	if got := km.WireSize(); got != want {
		t.Errorf("kernel wire size = %d, want %d", got, want)
	}
}

func TestWeightVector(t *testing.T) {
	lm := &LinearModel{W: []float64{0, 3, 0, -1}}
	wv := lm.WeightVector()
	if wv.Len() != 2 || wv.At(1) != 3 || wv.At(3) != -1 {
		t.Errorf("WeightVector = %v", wv)
	}
}

func TestTrainLinearDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := gaussianBlobs(rng, 100, 4, 1.5)
	a, err := TrainLinear(data, LinearOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainLinear(data, LinearOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestPropertyDecisionMarginAgreesWithPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := gaussianBlobs(rng, 120, 4, 2)
	m, err := TrainLinear(data, LinearOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := vector.FromMap(map[int32]float64{
			0: rr.NormFloat64(), 1: rr.NormFloat64(),
			2: rr.NormFloat64(), 3: rr.NormFloat64(),
		})
		d := m.Decision(x)
		p := Predict(m, x)
		return (d >= 0 && p == 1) || (d < 0 && p == -1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCascadeDecisionFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var models []*KernelModel
	for p := 0; p < 4; p++ {
		m, err := TrainKernel(gaussianBlobs(rng, 24, 3, 2), KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}, Seed: int64(p)})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	merged, err := Cascade(models, CascadeOptions{KernelOptions: KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		x := vector.FromMap(map[int32]float64{0: a, 1: b, 2: c})
		d := merged.Decision(x)
		return !math.IsNaN(d) && !math.IsInf(d, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrainLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := gaussianBlobs(rng, 200, 20, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainLinear(data, LinearOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainKernelRBF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := gaussianBlobs(rng, 100, 20, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainKernel(data, KernelOptions{Kernel: Kernel{Kind: KernelRBF, Gamma: 0.5}, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPruned(t *testing.T) {
	m := &LinearModel{W: []float64{10, 0.01, -5, 0.001, 0}, Bias: 1}
	p := m.Pruned(0.05) // cut = 0.5
	if p.W[0] != 10 || p.W[2] != -5 {
		t.Errorf("large weights pruned: %v", p.W)
	}
	if p.W[1] != 0 || p.W[3] != 0 {
		t.Errorf("small weights kept: %v", p.W)
	}
	if p.Bias != 1 {
		t.Error("bias changed")
	}
	if m.W[1] != 0.01 {
		t.Error("Pruned mutated the receiver")
	}
	// Pruning must shrink the wire size.
	if p.WireSize() >= m.WireSize() {
		t.Error("pruning did not shrink wire size")
	}
}

func TestNoised(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &LinearModel{W: []float64{1, 0, -2, 3}, Bias: 0.5}
	n := m.Noised(0.1, rng)
	if n == m {
		t.Fatal("noise requested but same model returned")
	}
	// Zero weights stay zero (sparsity pattern is not leaked further).
	if n.W[1] != 0 {
		t.Error("zero weight became non-zero")
	}
	changed := 0
	for i := range m.W {
		if n.W[i] != m.W[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("no weight perturbed")
	}
	// Zero scale is the identity.
	if m.Noised(0, rng) != m {
		t.Error("zero noise should return the receiver")
	}
	// Mild noise barely moves decisions on separable data.
	rng2 := rand.New(rand.NewSource(2))
	data := gaussianBlobs(rng2, 200, 5, 2.0)
	trained, err := TrainLinear(data, LinearOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	noisy := trained.Noised(0.1, rng2)
	if acc := Accuracy(noisy, data); acc < 0.9 {
		t.Errorf("mild noise destroyed accuracy: %v", acc)
	}
}
