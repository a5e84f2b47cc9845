package realnet

import (
	"testing"

	"repro/internal/svm"
	"repro/internal/wire"
)

// pinSet is a small hand-built model set: fixed weights, so its encodings
// depend on nothing but the codecs.
func pinSet() *ModelSet {
	w1 := make([]float64, 64)
	w1[3], w1[17], w1[40] = 0.5, -1.25, 2.0
	w2 := make([]float64, 16)
	w2[0], w2[15] = -0.75, 0.25
	return &ModelSet{
		Models:   map[string]*svm.LinearModel{"music": {W: w1, Bias: 0.1}, "travel": {W: w2, Bias: -0.3}},
		Platt:    map[string]svm.PlattParams{"music": {A: -1.2, B: 0.05}, "travel": {A: -0.8, B: -0.1}},
		Accuracy: map[string]float64{"music": 0.9, "travel": 0.75},
	}
}

// pinnedPayloads are the three frame payloads this package produces, over
// fixed inputs, with the digests (wire.Checksum) and lengths of the bytes
// they had before the byte-cursor rewrite: old and new nodes interoperate
// only while these hold.
func pinnedPayloads(t *testing.T) []struct {
	name    string
	payload []byte
	length  int
	digest  uint64
} {
	t.Helper()
	gen, err := encodeGeneration(Generation{Seq: 42, Origin: "10.0.0.1:7001", Set: pinSet()})
	if err != nil {
		t.Fatal(err)
	}
	models, err := encodeModelSet("10.0.0.2:7002", pinSet())
	if err != nil {
		t.Fatal(err)
	}
	hello := encodeHello([]string{"10.0.0.3:7003", "[::1]:9999", ""})
	return []struct {
		name    string
		payload []byte
		length  int
		digest  uint64
	}{
		{"generation", gen, 188, 0xf2d5d493bad197bb},
		{"models", models, 172, 0x3180d1c4018550ad},
		{"hello", hello, 31, 0xe496e42296d4859a},
	}
}

// TestPayloadsPinned: same bytes on the wire, to the bit.
func TestPayloadsPinned(t *testing.T) {
	for _, p := range pinnedPayloads(t) {
		if len(p.payload) != p.length || wire.Checksum(p.payload) != p.digest {
			t.Errorf("%s: %d bytes, digest %#x; pinned %d bytes, %#x",
				p.name, len(p.payload), wire.Checksum(p.payload), p.length, p.digest)
		}
	}
}
