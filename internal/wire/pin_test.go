package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vector"
)

// pinnedEncodings are the two encodings this package produces, over fixed
// inputs, with the digests (Checksum) and lengths of the bytes they had
// before the byte-cursor rewrite. Old and new nodes interoperate only while
// these hold; a change here is a wire-format break, not a refactor.
func pinnedEncodings(t *testing.T) []struct {
	name   string
	data   []byte
	length int
	digest uint64
} {
	t.Helper()
	var set, vec bytes.Buffer
	if err := WriteModelSet(&set, fuzzSeedSet()); err != nil {
		t.Fatal(err)
	}
	if err := WriteVector(&vec, vector.FromMap(map[int32]float64{1: 2, 5: -1, 9000: 0.125})); err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		data   []byte
		length int
		digest uint64
	}{
		{"model set", set.Bytes(), 157, 0x877101dfcc98548a},
		{"vector", vec.Bytes(), 40, 0x6d9441280b05a30f},
	}
}

// TestEncodingsPinned: same bytes on the wire, to the bit.
func TestEncodingsPinned(t *testing.T) {
	for _, p := range pinnedEncodings(t) {
		if len(p.data) != p.length || Checksum(p.data) != p.digest {
			t.Errorf("%s: %d bytes, digest %#x; pinned %d bytes, %#x", p.name, len(p.data), Checksum(p.data), p.length, p.digest)
		}
	}
}

// TestEveryTruncationIsCorrupt: every proper prefix of a valid encoding is
// refused with an ErrCorrupt-wrapping error — never a panic, never a
// success on fewer bytes than were written.
func TestEveryTruncationIsCorrupt(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"model set": func(b []byte) error { _, err := ReadModelSet(bytes.NewReader(b)); return err },
		"vector":    func(b []byte) error { _, err := ReadVector(bytes.NewReader(b), 0); return err },
	}
	for _, p := range pinnedEncodings(t) {
		decode := decoders[p.name]
		if err := decode(p.data); err != nil {
			t.Fatalf("%s: full encoding refused: %v", p.name, err)
		}
		for cut := 0; cut < len(p.data); cut++ {
			if err := decode(p.data[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: prefix of %d/%d bytes: err = %v, want ErrCorrupt", p.name, cut, len(p.data), err)
			}
		}
	}
}
