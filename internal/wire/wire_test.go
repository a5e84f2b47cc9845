package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/svm"
	"repro/internal/vector"
)

func randVec(rng *rand.Rand, n int) *vector.Sparse {
	m := make(map[int32]float64, n)
	for i := 0; i < n; i++ {
		m[int32(rng.Intn(10000))] = rng.NormFloat64()
	}
	return vector.FromMap(m)
}

func TestVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 500} {
		v := randVec(rng, n)
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := ReadVector(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestVectorEncodingMatchesWireSize(t *testing.T) {
	// The simulator's analytic WireSize must track the real encoding
	// exactly (both are 4 + 12*nnz).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		v := randVec(rng, rng.Intn(200))
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != v.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d", buf.Len(), v.WireSize())
		}
	}
}

func TestVectorCorruptLength(t *testing.T) {
	var buf bytes.Buffer
	v := randVec(rand.New(rand.NewSource(3)), 5)
	if err := WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Claim 2^31 entries.
	data[0], data[1], data[2], data[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadVector(bytes.NewReader(data), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt length: err = %v", err)
	}
	// Truncated body.
	if _, err := ReadVector(bytes.NewReader(buf.Bytes()[:10]), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: err = %v", err)
	}
	// Empty input.
	if _, err := ReadVector(bytes.NewReader(nil), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty: err = %v", err)
	}
}

// oneTagSet encodes m as the only model of a set, under tag "t".
func oneTagSet(t *testing.T, m *svm.SparseModel) []byte {
	t.Helper()
	b, err := AppendModelSet(nil, map[string]CalibratedModel{"t": {Model: m, Platt: svm.PlattParams{A: -1, B: 0.5}, Accuracy: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLinearModelRoundTrip(t *testing.T) {
	m := (&svm.LinearModel{W: []float64{0, 1.5, 0, -2.25, 0, 0, 3}, Bias: -0.5}).Sparse()
	set, err := ReadModelSet(bytes.NewReader(oneTagSet(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	if got := set["t"].Model; len(set) != 1 || !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
}

func TestLinearModelEncodingNearWireSize(t *testing.T) {
	// WireSize is the model record exactly: a 16-byte header (bias, dim,
	// nnz) and 12 bytes per non-zero weight. The set adds its count, the
	// tag and the calibration around it.
	m := &svm.LinearModel{W: make([]float64, 1000), Bias: 1}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		m.W[rng.Intn(1000)] = rng.NormFloat64()
	}
	s := m.Sparse()
	if s.WireSize() != m.WireSize() {
		t.Fatalf("sparse WireSize %d, dense %d", s.WireSize(), m.WireSize())
	}
	if got, want := len(oneTagSet(t, s)), 2+2+len("t")+s.WireSize()+24; got != want {
		t.Errorf("encoded %dB, want %dB from WireSize", got, want)
	}
}

func TestLinearModelCorrupt(t *testing.T) {
	data := oneTagSet(t, &svm.SparseModel{Index: []int32{0}, Value: []float64{1}, Dim: 1})
	// dim field after the count (2), the tag (2+1) and the bias (8): make
	// it absurd.
	data[13], data[14], data[15], data[16] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadModelSet(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("absurd dim accepted: %v", err)
	}
	if _, err := ReadModelSet(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty input: %v", err)
	}
}

func TestPropertyVectorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randVec(rng, rng.Intn(50))
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			return false
		}
		got, err := ReadVector(&buf, 0)
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzReadVector ensures arbitrary bytes never panic the decoder.
func FuzzReadVector(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteVector(&buf, vector.FromMap(map[int32]float64{1: 2, 5: -1}))
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ReadVector(bytes.NewReader(data), 1024)
		if err == nil && v == nil {
			t.Fatal("nil vector without error")
		}
	})
}

func TestModelSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := map[string]CalibratedModel{}
	for _, tag := range []string{"music", "travel", "cooking"} {
		w := make([]float64, 64)
		for i := 0; i < 12; i++ {
			w[rng.Intn(len(w))] = rng.NormFloat64()
		}
		set[tag] = CalibratedModel{
			Model:    (&svm.LinearModel{W: w, Bias: rng.NormFloat64()}).Sparse(),
			Platt:    svm.PlattParams{A: rng.NormFloat64(), B: rng.NormFloat64()},
			Accuracy: rng.Float64(),
		}
	}
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	got, err := ReadModelSet(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(set) {
		t.Fatalf("round trip returned %d tags, want %d", len(got), len(set))
	}
	for tag, want := range set {
		g, ok := got[tag]
		if !ok {
			t.Fatalf("tag %q missing after round trip", tag)
		}
		if g.Platt != want.Platt || g.Accuracy != want.Accuracy {
			t.Errorf("tag %q: calibration mismatch", tag)
		}
		if !reflect.DeepEqual(g.Model, want.Model) {
			t.Fatalf("tag %q: model %+v, want %+v", tag, g.Model, want.Model)
		}
	}
	// Determinism: identical sets serialize to identical bytes (tags are
	// sorted during encode, so map order cannot leak in).
	var again bytes.Buffer
	if err := WriteModelSet(&again, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, again.Bytes()) {
		t.Error("two encodings of the same set differ")
	}
	// Every truncation of a valid encoding must fail with ErrCorrupt, not
	// panic or succeed.
	for cut := 0; cut < len(encoded); cut += 7 {
		if _, err := ReadModelSet(bytes.NewReader(encoded[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}
