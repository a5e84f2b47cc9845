package simnet

import (
	"hash/fnv"
	"time"
)

// WorkloadConfig parameterizes a synthetic message-heavy traffic pattern:
// Tokens tokens hop TTL times between random nodes, and every delivery
// burns Work rounds of hash mixing — a stand-in for the per-message CPU a
// real protocol handler spends. The pinned-outcome tests and bench/'s
// simnet probe drive simulations through it.
type WorkloadConfig struct {
	// Nodes is the network size; default 64.
	Nodes int
	// Tokens is how many tokens circulate concurrently; default Nodes.
	Tokens int
	// TTL is the number of hops each token makes; default 16.
	TTL int
	// Work is the number of mix rounds per delivery; default 64.
	Work int
	// Seed passes through to the Network.
	Seed int64
}

// Workload is a network populated with token-passing nodes. Each node
// keeps a running hash of every token value it sees; Checksum folds those
// per-node digests together, giving a single value that any reordering,
// loss or miscount of deliveries would change.
type Workload struct {
	Net *Network

	cfg  WorkloadConfig
	acc  []uint64
	recv []int64
}

type token struct {
	ttl int
	val uint64
}

// mix is one round of SplitMix64 — cheap, deterministic, unoptimizable.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (cfg *WorkloadConfig) defaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 64
	}
	if cfg.Nodes < 2 {
		cfg.Nodes = 2 // tokens need a sender and a distinct receiver
	}
	if cfg.Tokens <= 0 {
		cfg.Tokens = cfg.Nodes
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 16
	}
	if cfg.Work <= 0 {
		cfg.Work = 64
	}
}

// tokenSize is the wire size charged per token message.
const tokenSize = 128

// workloadLatency is NewWorkload's delay model.
var workloadLatency = UniformLatency{Min: 8 * time.Millisecond, Max: 20 * time.Millisecond}

// NewWorkload builds the network and its nodes and injects the initial
// tokens; call Run to execute the traffic.
func NewWorkload(cfg WorkloadConfig) *Workload {
	cfg.defaults()
	return NewWorkloadWithNetwork(cfg, New(Options{Latency: workloadLatency, Seed: cfg.Seed}))
}

// NewWorkloadWithNetwork populates an existing (empty) network with the
// workload's nodes and tokens — for tests that need extra Options such as
// DropRate or a custom latency model.
func NewWorkloadWithNetwork(cfg WorkloadConfig, net *Network) *Workload {
	cfg.defaults()
	w := &Workload{
		Net:  net,
		cfg:  cfg,
		acc:  make([]uint64, cfg.Nodes),
		recv: make([]int64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		self := NodeID(i)
		w.Net.AddNode(self, HandlerFunc(func(nn *Network, m Message) {
			tk := m.Payload.(token)
			// Burn the per-delivery CPU budget into this node's digest.
			v := tk.val ^ uint64(self)
			for r := 0; r < w.cfg.Work; r++ {
				v = mix(v)
			}
			w.acc[self] ^= v
			w.recv[self]++
			if tk.ttl <= 0 {
				return
			}
			// Forward to a random other node, drawn from this node's
			// private stream so the route depends only on its own history.
			next := NodeID((int(self) + 1 + nn.NodeRand(self).Intn(w.cfg.Nodes-1)) % w.cfg.Nodes)
			nn.Send(Message{From: self, To: next, Kind: "tok", Size: tokenSize,
				Payload: token{ttl: tk.ttl - 1, val: v}})
		}))
	}
	for t := 0; t < cfg.Tokens; t++ {
		from := NodeID(t % cfg.Nodes)
		to := NodeID((t + 1 + t/cfg.Nodes) % cfg.Nodes)
		if to == from {
			to = (to + 1) % NodeID(cfg.Nodes)
		}
		w.Net.Send(Message{From: from, To: to, Kind: "tok", Size: tokenSize,
			Payload: token{ttl: cfg.TTL, val: mix(uint64(t))}})
	}
	return w
}

// Run executes the workload to quiescence and returns the number of events
// processed.
func (w *Workload) Run() int { return w.Net.Run(0) }

// Checksum digests every node's accumulated state and delivery count. Two
// runs of the same config agree on it if and only if every node saw the
// same token values the same number of times — the workload's
// determinism witness.
func (w *Workload) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range w.acc {
		write(w.acc[i])
		write(uint64(w.recv[i]))
	}
	return h.Sum64()
}
