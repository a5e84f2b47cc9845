package simnet

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRunAdvancesClockWhenDrained is the regression test for the RunFor
// under-advance bug: when the queue drains before the horizon, the clock
// must still land exactly on the horizon, so consecutive RunFor calls
// advance the clock by exactly their sum.
func TestRunAdvancesClockWhenDrained(t *testing.T) {
	n := New(Options{Latency: FixedLatency(10 * time.Millisecond)})
	n.AddNode(1, HandlerFunc(func(*Network, Message) {}))
	n.AddNode(2, HandlerFunc(func(*Network, Message) {}))
	n.Send(Message{From: 1, To: 2, Kind: "x", Size: 1})
	n.Run(time.Second) // queue drains at 10ms
	if n.Now() != time.Second {
		t.Fatalf("Now after Run(1s) with drained queue = %v, want 1s", n.Now())
	}
	n.RunFor(time.Second)
	if n.Now() != 2*time.Second {
		t.Fatalf("Now after RunFor(1s) = %v, want 2s", n.Now())
	}
	// A timer scheduled now must fire relative to the advanced clock.
	var firedAt time.Duration
	n.Schedule(1, 50*time.Millisecond, func() { firedAt = n.Now() })
	n.Run(0)
	if want := 2*time.Second + 50*time.Millisecond; firedAt != want {
		t.Fatalf("timer fired at %v, want %v", firedAt, want)
	}
}

// TestEventHeapOrdering pins the value heap's ordering: events pop in
// (time, source, sequence) order regardless of push order.
func TestEventHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h eventHeap
	var want []event
	for i := 0; i < 500; i++ {
		e := event{
			at:  time.Duration(rng.Intn(20)) * time.Millisecond,
			src: NodeID(rng.Intn(5) - 1),
			seq: uint64(rng.Intn(50)),
		}
		want = append(want, e)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].before(&want[j]) })
	for _, i := range rng.Perm(len(want)) {
		h.push(want[i])
	}
	for i := range want {
		got := h.pop()
		if got.at != want[i].at || got.src != want[i].src || got.seq != want[i].seq {
			t.Fatalf("pop %d = (%v,%d,%d), want (%v,%d,%d)",
				i, got.at, got.src, got.seq, want[i].at, want[i].src, want[i].seq)
		}
	}
	if len(h) != 0 {
		t.Fatal("heap not drained")
	}
}

// guardLatencies are the networks the misuse-guard tests run on: a fixed
// positive delay, and a zero minimum delay, where a message can be due at
// the instant it is sent.
var guardLatencies = []struct {
	name    string
	latency LatencyModel
}{
	{"fixed", FixedLatency(time.Millisecond)},
	{"zero-min-delay", UniformLatency{Min: 0, Max: time.Millisecond}},
}

// TestSerialOnlyGuards pins the engine's misuse panics: lifecycle and
// system scheduling mutate cross-node state, and the setup stream Rand
// would tie one node's randomness to every other node's traffic, so
// calling them from inside a node event handler must fail loudly on every
// latency model.
func TestSerialOnlyGuards(t *testing.T) {
	for _, call := range []struct {
		name string
		do   func(n *Network)
	}{
		{"ScheduleSystem", func(n *Network) { n.ScheduleSystem(time.Second, func() {}) }},
		{"Kill", func(n *Network) { n.Kill(2) }},
		{"Revive", func(n *Network) { n.Revive(2) }},
		{"AddNode", func(n *Network) { n.AddNode(9, HandlerFunc(func(*Network, Message) {})) }},
		{"RemoveNode", func(n *Network) { n.RemoveNode(2) }},
		{"Rand", func(n *Network) { n.Rand() }},
	} {
		t.Run(call.name, func(t *testing.T) {
			for _, lat := range guardLatencies {
				t.Run(lat.name, func(t *testing.T) {
					n := New(Options{Latency: lat.latency})
					recovered := false
					n.AddNode(1, HandlerFunc(func(nn *Network, _ Message) {
						defer func() {
							if recover() != nil {
								recovered = true
							}
						}()
						call.do(nn)
					}))
					n.AddNode(2, HandlerFunc(func(*Network, Message) {}))
					n.Send(Message{From: 1, To: 2, Kind: "x", Size: 1})
					n.Send(Message{From: 2, To: 1, Kind: "x", Size: 1})
					n.Run(time.Second)
					if !recovered {
						t.Errorf("%s inside a handler did not panic", call.name)
					}
				})
			}
		})
	}
}

// TestActAsOwnNodeGuard pins the engine contract that a handler may only
// send or schedule as its own node: impersonating another node must panic
// loudly (silently it would advance that node's random stream and event
// counter out of its own event history) on every latency model.
func TestActAsOwnNodeGuard(t *testing.T) {
	for _, call := range []struct {
		name string
		do   func(nn *Network)
	}{
		{"Send", func(nn *Network) { nn.Send(Message{From: 2, To: 1, Kind: "forged", Size: 1}) }},
		{"Schedule", func(nn *Network) { nn.Schedule(2, time.Millisecond, func() {}) }},
	} {
		t.Run(call.name, func(t *testing.T) {
			for _, lat := range guardLatencies {
				t.Run(lat.name, func(t *testing.T) {
					n := New(Options{Latency: lat.latency})
					recovered := false
					n.AddNode(1, HandlerFunc(func(nn *Network, _ Message) {
						defer func() {
							if recover() != nil {
								recovered = true
							}
						}()
						call.do(nn)
					}))
					n.AddNode(2, HandlerFunc(func(*Network, Message) {}))
					n.Send(Message{From: 2, To: 1, Kind: "x", Size: 1})
					n.Run(time.Second)
					if !recovered {
						t.Errorf("handler of node 1 acting as node 2 via %s did not panic", call.name)
					}
				})
			}
		})
	}
}

// TestSameInstantOrder pins the order of three events due at the same
// virtual time, created in the reverse of the order they must run: a
// system event first, then a timer filed for a node that did not exist
// when it was scheduled (the system event adds that node), then a node's
// message. Every handler sees the exact event time.
func TestSameInstantOrder(t *testing.T) {
	const at = 10 * time.Millisecond
	n := New(Options{Latency: FixedLatency(at)})
	var order []string
	record := func(what string) {
		if n.Now() != at {
			t.Errorf("%s ran at %v, want %v", what, n.Now(), at)
		}
		order = append(order, what)
	}
	n.AddNode(1, HandlerFunc(func(*Network, Message) {}))
	n.AddNode(2, HandlerFunc(func(*Network, Message) { record("message") }))
	n.Send(Message{From: 1, To: 2, Kind: "x", Size: 1})
	n.Schedule(9, at, func() { record("unknown-owner timer") })
	n.ScheduleSystem(at, func() {
		record("system")
		n.AddNode(9, HandlerFunc(func(*Network, Message) {}))
	})
	if got := n.Run(0); got != 3 {
		t.Errorf("Run processed %d events, want 3", got)
	}
	want := []string{"system", "unknown-owner timer", "message"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %q, want %q", order, want)
	}
}

// TestStatsConsistentDuringRun reads Stats on another goroutine while a
// message-heavy workload runs: because the snapshot is taken under one
// lock, it must never observe more deliveries than sends. Under -race (the
// CI short tier) this also catches any unguarded counter access.
func TestStatsConsistentDuringRun(t *testing.T) {
	w := NewWorkload(WorkloadConfig{Nodes: 64, TTL: 50, Work: 16, Seed: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := w.Net.Stats()
			if s.MessagesDelivered > s.MessagesSent {
				t.Errorf("snapshot tore: delivered %d > sent %d", s.MessagesDelivered, s.MessagesSent)
				return
			}
			if s.BytesDelivered > s.BytesSent {
				t.Errorf("snapshot tore: bytes delivered %d > sent %d", s.BytesDelivered, s.BytesSent)
				return
			}
		}
	}()
	w.Run()
	close(stop)
	wg.Wait()
	if s := w.Net.Stats(); s.MessagesDelivered == 0 {
		t.Fatal("workload delivered nothing")
	}
}
