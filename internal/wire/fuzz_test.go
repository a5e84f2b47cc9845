package wire

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/svm"
)

// fuzzSeedSet is a small honest model set whose encoding seeds the fuzz
// corpus (alongside the committed files under testdata/fuzz).
func fuzzSeedSet() map[string]CalibratedModel {
	w1 := make([]float64, 64)
	w1[3], w1[17], w1[40] = 0.5, -1.25, 2.0
	w2 := make([]float64, 16)
	w2[0], w2[15] = -0.75, 0.25
	return map[string]CalibratedModel{
		"music": {
			Model:    &svm.LinearModel{W: w1, Bias: 0.1},
			Platt:    svm.PlattParams{A: -1.2, B: 0.05},
			Accuracy: 0.9,
		},
		"travel": {
			Model:    &svm.LinearModel{W: w2, Bias: -0.3},
			Platt:    svm.PlattParams{A: -0.8, B: -0.1},
			Accuracy: 0.75,
		},
	}
}

// FuzzReadModelSet drives arbitrary bytes at the model-set decoder. The
// decoder must never panic or allocate past its budgets, and anything it
// accepts must re-encode deterministically: write(read(data)) read back and
// written again yields byte-identical output (the canonical sorted-tag
// encoding is a fixed point).
func FuzzReadModelSet(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteModelSet(&valid, fuzzSeedSet()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2]) // truncated
	f.Add([]byte{})
	// Lying tag count over no data, and a huge-dim claim.
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{1, 0, 1, 0, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadModelSet(bytes.NewReader(data))
		if err != nil {
			return // rejecting hostile input is the job
		}
		var once bytes.Buffer
		if err := WriteModelSet(&once, set); err != nil {
			t.Fatalf("accepted set refuses to encode: %v", err)
		}
		again, err := ReadModelSet(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("canonical encoding refused on re-read: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteModelSet(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("canonical encoding is not a fixed point: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

// TestChecksumPinned pins the digest function: FNV-1a/64, stable across
// releases (gossip frames from different builds must agree), sensitive to
// any byte flip.
func TestChecksumPinned(t *testing.T) {
	if got := Checksum(nil); got != 14695981039346656037 {
		t.Fatalf("Checksum(nil) = %d, want the FNV-1a offset basis", got)
	}
	// Pin against the stdlib reference implementation.
	ref := fnv.New64a()
	ref.Write([]byte("wire"))
	if got, want := Checksum([]byte("wire")), ref.Sum64(); got != want {
		t.Fatalf("Checksum(%q) = %#x, hash/fnv says %#x", "wire", got, want)
	}
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, fuzzSeedSet()); err != nil {
		t.Fatal(err)
	}
	base := Checksum(buf.Bytes())
	for _, flip := range []int{0, buf.Len() / 2, buf.Len() - 1} {
		mutated := append([]byte(nil), buf.Bytes()...)
		mutated[flip] ^= 0x01
		if Checksum(mutated) == base {
			t.Errorf("flipping byte %d left the checksum unchanged", flip)
		}
	}
}

// TestDecoderBudgets pins the allocation caps: decoders refuse claimed
// sizes past their budgets with ErrCorrupt instead of allocating.
func TestDecoderBudgets(t *testing.T) {
	t.Run("linear dim cap", func(t *testing.T) {
		var buf bytes.Buffer
		mustWrite(t, &buf, math.Float64bits(0.0)) // bias
		mustWrite(t, &buf, uint32(maxModelDim+1)) // dim past the cap
		mustWrite(t, &buf, uint32(0))             // nnz
		if _, err := ReadLinearModel(&buf); err == nil {
			t.Fatal("dim past maxModelDim accepted")
		}
	})
	t.Run("set weight budget", func(t *testing.T) {
		// Each model claims the largest dim the per-model cap allows with
		// zero entries; enough of them must trip the cumulative budget even
		// though each is individually within bounds.
		var buf bytes.Buffer
		perModel := uint32(maxModelSetWeights/2 + 1)
		mustWrite(t, &buf, uint16(3))
		for i := 0; i < 3; i++ {
			mustWrite(t, &buf, uint16(1))
			buf.WriteByte(byte('a' + i))
			mustWrite(t, &buf, math.Float64bits(0.0)) // bias
			mustWrite(t, &buf, perModel)              // dim
			mustWrite(t, &buf, uint32(0))             // nnz
			for j := 0; j < 3; j++ {
				mustWrite(t, &buf, math.Float64bits(0.5)) // platt + accuracy
			}
		}
		if _, err := ReadModelSet(&buf); err == nil {
			t.Fatal("cumulative weight budget not enforced")
		}
	})
	t.Run("truncated nnz allocates nothing dense", func(t *testing.T) {
		// A model claiming a large dim with entries that never arrive must
		// error on the missing bytes (the dense array materializes only
		// after the sparse entries were read, so the claim costs nothing).
		var buf bytes.Buffer
		mustWrite(t, &buf, math.Float64bits(0.0))
		mustWrite(t, &buf, uint32(maxModelDim)) // dim at the cap
		mustWrite(t, &buf, uint32(1000))        // promised entries...
		// ...but the stream ends here.
		if _, err := ReadLinearModel(&buf); err == nil {
			t.Fatal("truncated weight stream accepted")
		}
	})
}

func mustWrite(t *testing.T, buf *bytes.Buffer, v any) {
	t.Helper()
	if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
}
