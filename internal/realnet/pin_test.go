package realnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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

// pinnedPayloads are the two frame payloads this package produces, over
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
	hello := encodeHello([]string{"10.0.0.3:7003", "[::1]:9999", ""})
	return []struct {
		name    string
		payload []byte
		length  int
		digest  uint64
	}{
		{"generation", gen, 188, 0xf2d5d493bad197bb},
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

// TestEveryTruncationIsCorrupt: every proper prefix of a valid payload is
// refused with a wire.ErrCorrupt-wrapping error — never a panic, never a
// success on fewer bytes than were sent.
func TestEveryTruncationIsCorrupt(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"generation": func(b []byte) error { _, err := decodeGeneration(b); return err },
		"hello":      func(b []byte) error { _, err := decodeHello(b); return err },
	}
	for _, p := range pinnedPayloads(t) {
		decode := decoders[p.name]
		if err := decode(p.payload); err != nil {
			t.Fatalf("%s: full payload refused: %v", p.name, err)
		}
		for cut := 0; cut < len(p.payload); cut++ {
			if err := decode(p.payload[:cut]); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%s: prefix of %d/%d bytes: err = %v, want ErrCorrupt", p.name, cut, len(p.payload), err)
			}
		}
	}
}

// TestFrameHeaderBuysNoMemory: a 5-byte header claiming 48 MiB, over a
// budget of 32 MiB, on a stream that then ends. The reader must decide from
// the header — drain, not buffer — so the claim allocates (next to)
// nothing; and a frame within budget on the same stream still reads.
func TestFrameHeaderBuysNoMemory(t *testing.T) {
	budget := func(byte) int { return 32 << 20 }
	hdr := binary.LittleEndian.AppendUint32([]byte{frameGen}, 48<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr), budget)
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, errOverBudget) {
		t.Fatalf("header over a stream that ends: err = %v, want a read error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a 5-byte header allocated %d bytes", grew)
	}

	var stream bytes.Buffer
	if err := writeFrame(&stream, frameGen, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&stream, frameHello, []byte("next")); err != nil {
		t.Fatal(err)
	}
	small := func(byte) int { return 99 }
	if _, _, err := readFrame(&stream, small); !errors.Is(err, errOverBudget) {
		t.Fatalf("over-budget frame: err = %v, want errOverBudget", err)
	}
	typ, payload, err := readFrame(&stream, small)
	if err != nil || typ != frameHello || string(payload) != "next" {
		t.Fatalf("frame after a drained one = (%d, %q, %v)", typ, payload, err)
	}
}
