package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/svm"
)

// fuzzSeedSet is a small honest model set whose encoding seeds the fuzz
// corpus (alongside the committed files under testdata/fuzz).
func fuzzSeedSet() map[string]CalibratedModel {
	return map[string]CalibratedModel{
		"music": {
			Model:    &svm.SparseModel{Index: []int32{3, 17, 40}, Value: []float64{0.5, -1.25, 2.0}, Dim: 64, Bias: 0.1},
			Platt:    svm.PlattParams{A: -1.2, B: 0.05},
			Accuracy: 0.9,
		},
		"travel": {
			Model:    &svm.SparseModel{Index: []int32{0, 15}, Value: []float64{-0.75, 0.25}, Dim: 16, Bias: -0.3},
			Platt:    svm.PlattParams{A: -0.8, B: -0.1},
			Accuracy: 0.75,
		},
	}
}

// rawModel is one set member written field by field, canonical or not.
type rawModel struct {
	tag   string
	dim   uint32
	index []uint32
	value []float64
}

// rawSet encodes members in the given order exactly as listed, bypassing
// AppendModelSet's sorting, so a test can write what no honest encoder
// would.
func rawSet(members ...rawModel) []byte {
	b := le.AppendUint16(nil, uint16(len(members)))
	for _, m := range members {
		b, _ = AppendString(b, m.tag)
		b = le.AppendUint64(b, math.Float64bits(0.25))
		b = le.AppendUint32(b, m.dim)
		b = le.AppendUint32(b, uint32(len(m.index)))
		for k, idx := range m.index {
			b = appendEntry(b, idx, m.value[k])
		}
		for _, v := range [3]float64{-1, 0.5, 0.75} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// nonCanonical is one well-formed but non-canonical payload per refusal
// rule of DecodeModelSet and ReadModelSet.
func nonCanonical() map[string][]byte {
	ok := rawModel{tag: "a", dim: 8, index: []uint32{1, 5}, value: []float64{0.5, -2}}
	b := ok
	b.tag = "b"
	model := func(index []uint32, value []float64) []byte {
		return rawSet(rawModel{tag: "a", dim: 8, index: index, value: value})
	}
	return map[string][]byte{
		"repeated tag":     rawSet(ok, ok),
		"descending tags":  rawSet(b, ok),
		"repeated index":   model([]uint32{1, 1}, []float64{0.5, -2}),
		"descending index": model([]uint32{5, 1}, []float64{0.5, -2}),
		"index at dim":     model([]uint32{1, 8}, []float64{0.5, -2}),
		"explicit zero":    model([]uint32{1, 5}, []float64{0.5, 0}),
		"negative zero":    model([]uint32{1, 5}, []float64{math.Copysign(0, -1), -2}),
		"trailing bytes":   append(rawSet(ok, b), 0),
	}
}

// TestDecodeRefusesNonCanonical: each refusal rule rejects its payload
// with ErrCorrupt, while the same members written canonically decode.
func TestDecodeRefusesNonCanonical(t *testing.T) {
	for name, data := range nonCanonical() {
		if _, err := ReadModelSet(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	canonical := rawSet(
		rawModel{tag: "a", dim: 8, index: []uint32{1, 5}, value: []float64{0.5, -2}},
		rawModel{tag: "b", dim: 8, index: []uint32{0, 7}, value: []float64{math.NaN(), 1}},
	)
	if _, err := ReadModelSet(bytes.NewReader(canonical)); err != nil {
		t.Fatalf("canonical payload refused: %v", err)
	}
}

// FuzzReadModelSet drives arbitrary bytes at the model-set decoder. The
// decoder must never panic or allocate past its budgets, and it accepts
// only canonical encodings: whatever it accepts re-encodes to exactly the
// input bytes.
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
	for _, name := range slices.Sorted(maps.Keys(nonCanonical())) {
		f.Add(nonCanonical()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ReadModelSet(bytes.NewReader(data))
		if err != nil {
			return // rejecting hostile input is the job
		}
		var again bytes.Buffer
		if err := WriteModelSet(&again, set); err != nil {
			t.Fatalf("accepted set refuses to encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), again.Len())
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
// sizes past their budgets with ErrCorrupt instead of allocating, and a
// claimed dimension buys nothing.
func TestDecoderBudgets(t *testing.T) {
	t.Run("linear dim cap", func(t *testing.T) {
		data := rawSet(rawModel{tag: "a", dim: maxModelDim + 1})
		if _, err := ReadModelSet(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dim past maxModelDim: err = %v", err)
		}
	})
	t.Run("set weight budget", func(t *testing.T) {
		// The second model's claim fits the per-set cap on its own, but
		// not beside the first model's two entries: the cumulative budget
		// refuses it from the header, before looking for its bytes.
		data := rawSet(rawModel{tag: "a", dim: 8, index: []uint32{1, 5}, value: []float64{0.5, -2}})
		data[0] = 2
		data, _ = AppendString(data, "b")
		data = le.AppendUint64(data, 0)
		data = le.AppendUint32(data, maxModelDim)
		data = le.AppendUint32(data, maxModelSetEntries-1)
		_, err := ReadModelSet(bytes.NewReader(data))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("cumulative entry budget not enforced: err = %v", err)
		}
	})
	t.Run("truncated nnz allocates nothing dense", func(t *testing.T) {
		// A model claiming a large dim with entries that never arrive must
		// error on the missing bytes.
		data := rawSet(rawModel{tag: "a", dim: maxModelDim})
		le.PutUint32(data[2+3+8+4:], 1000) // promised entries, then calibration only
		if _, err := ReadModelSet(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated weight stream: err = %v", err)
		}
	})
	t.Run("claimed dim costs nothing", func(t *testing.T) {
		// A 47-byte record claiming the dimension cap with no entries is a
		// valid set; decoding it must cost the receiver next to nothing.
		data := rawSet(rawModel{tag: "a", dim: maxModelDim})
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			set, err := DecodeModelSet(NewCursor(data))
			if err != nil || set["a"].Model.Dim != maxModelDim {
				t.Fatalf("decode = %v, %v", set, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
			t.Errorf("a record claiming dim %d allocated %d bytes per decode, budget 4 KiB", maxModelDim, per)
		}
	})
}

func mustWrite(t *testing.T, buf *bytes.Buffer, v any) {
	t.Helper()
	if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
}
