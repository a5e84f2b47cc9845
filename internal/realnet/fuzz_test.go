package realnet

import (
	"bytes"
	"testing"
)

// FuzzDecodeGeneration drives arbitrary bytes (seeded here and from
// testdata/fuzz) at the generation frame decoder: it must never panic, and
// anything it accepts re-encodes to a payload it accepts again.
func FuzzDecodeGeneration(f *testing.F) {
	valid, err := encodeGeneration(Generation{Seq: 42, Origin: "10.0.0.1:7001", Set: pinSet()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), 0)) // trailing byte: digest no longer matches
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := decodeGeneration(data)
		if err != nil {
			return
		}
		again, err := encodeGeneration(g)
		if err != nil {
			t.Fatalf("accepted generation refuses to encode: %v", err)
		}
		if _, err := decodeGeneration(again); err != nil {
			t.Fatalf("re-encoded generation refused: %v", err)
		}
	})
}

// FuzzDecodeHello drives arbitrary bytes at the hello decoder: never a
// panic, and an accepted hello holds exactly the addresses it claimed.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello([]string{"10.0.0.3:7003", "[::1]:9999", ""}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs, err := decodeHello(data)
		if err != nil {
			return
		}
		if len(addrs) > maxHelloAddrs {
			t.Fatalf("accepted %d addresses", len(addrs))
		}
		if got, err := decodeHello(encodeHello(addrs)); err != nil || len(got) != len(addrs) {
			t.Fatalf("re-encoded hello = (%d addrs, %v), want %d", len(got), err, len(addrs))
		}
	})
}
