package simnet

import (
	"testing"
	"time"
)

// BenchmarkEventLoop measures the serial event hot path — heap push/pop,
// latency draw, delivery dispatch — with a two-node ping-pong that does no
// handler work. The value-based event heap keeps this allocation free
// (the old container/heap engine paid one *event plus one *Message
// allocation per message).
func BenchmarkEventLoop(b *testing.B) {
	n := New(Options{Latency: FixedLatency(time.Millisecond), Seed: 1})
	n.AddNode(0, HandlerFunc(func(nn *Network, m Message) {
		nn.Send(Message{From: 0, To: 1, Kind: "pong", Size: 8})
	}))
	remaining := b.N
	n.AddNode(1, HandlerFunc(func(nn *Network, m Message) {
		if remaining--; remaining > 0 {
			nn.Send(Message{From: 1, To: 0, Kind: "ping", Size: 8})
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	n.Send(Message{From: 1, To: 0, Kind: "ping", Size: 8})
	n.Run(0)
}
