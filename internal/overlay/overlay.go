// Package overlay implements an unstructured P2P overlay — a random
// k-regular neighbor graph with TTL-limited flooding and rumor-mongering
// gossip broadcast. P2PDMT's topology experiments compare it against the
// structured DHT overlay (the "Generate structured / unstructured P2P
// network" boxes of Fig. 2).
package overlay

import (
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/runner"
	"repro/internal/simnet"
)

// Options configures an unstructured overlay.
type Options struct {
	// Degree is the number of neighbors per peer; default 4.
	Degree int
	// Seed drives graph construction.
	Seed int64
}

// Broadcast payloads are wrapped in an envelope carrying flood bookkeeping.
type envelope struct {
	ID      uint64
	TTL     int
	Kind    string
	Size    int
	Payload any
	Origin  simnet.NodeID
}

// Handler receives application broadcasts delivered by the overlay.
type Handler func(net *simnet.Network, from simnet.NodeID, kind string, payload any)

// Overlay is an unstructured random-graph overlay. Like the DHT, all peers
// share one Overlay object but each keeps only local state (its neighbor
// list, duplicate-suppression cache and gossip stream), so each peer's
// forwarding touches only its own state.
type Overlay struct {
	net       *simnet.Network
	neighbors map[simnet.NodeID][]simnet.NodeID
	seen      map[simnet.NodeID]map[uint64]bool
	handler   Handler
	nextID    uint64
	rng       *rand.Rand // graph construction only
	// gossipRng holds each peer's private fanout-selection stream, derived
	// from the overlay seed and the peer id so a peer's gossip routes
	// depend only on its own history.
	gossipRng map[simnet.NodeID]*rand.Rand
}

// New builds a connected random graph over ids and registers message
// handlers on the network. The graph starts from a ring (guaranteeing
// connectivity) and adds random chords until every node has at least
// Degree neighbors.
func New(net *simnet.Network, ids []simnet.NodeID, h Handler, opts Options) *Overlay {
	deg := opts.Degree
	if deg < 2 {
		deg = 4
	}
	o := &Overlay{
		net:       net,
		neighbors: make(map[simnet.NodeID][]simnet.NodeID, len(ids)),
		seen:      make(map[simnet.NodeID]map[uint64]bool, len(ids)),
		handler:   h,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		gossipRng: make(map[simnet.NodeID]*rand.Rand, len(ids)),
	}
	sorted := append([]simnet.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Ring edges.
	n := len(sorted)
	for i, id := range sorted {
		next := sorted[(i+1)%n]
		if id != next && !o.hasEdge(id, next) {
			o.addEdge(id, next)
		}
	}
	// Random chords until min degree reached.
	if n > 2 {
		for _, id := range sorted {
			guard := 0
			for len(o.neighbors[id]) < deg && guard < 100 {
				peer := sorted[o.rng.Intn(n)]
				if peer != id && !o.hasEdge(id, peer) {
					o.addEdge(id, peer)
				}
				guard++
			}
		}
	}
	for _, id := range sorted {
		o.seen[id] = make(map[uint64]bool)
		o.gossipRng[id] = rand.New(rand.NewSource(runner.DeriveSeed(opts.Seed, "gossip", strconv.Itoa(int(id)))))
		nodeID := id
		net.AddNode(id, simnet.HandlerFunc(func(nn *simnet.Network, m simnet.Message) {
			o.handle(nodeID, nn, m)
		}))
	}
	return o
}

func (o *Overlay) addEdge(a, b simnet.NodeID) {
	o.neighbors[a] = append(o.neighbors[a], b)
	o.neighbors[b] = append(o.neighbors[b], a)
}

func (o *Overlay) hasEdge(a, b simnet.NodeID) bool {
	for _, x := range o.neighbors[a] {
		if x == b {
			return true
		}
	}
	return false
}

// Neighbors returns a copy of a peer's neighbor list.
func (o *Overlay) Neighbors(id simnet.NodeID) []simnet.NodeID {
	return append([]simnet.NodeID(nil), o.neighbors[id]...)
}

// Network returns the underlying simulated network.
func (o *Overlay) Network() *simnet.Network { return o.net }

// Flood broadcasts payload from origin with a TTL: every peer forwards an
// unseen envelope to all neighbors except the one it arrived from. With
// TTL >= graph diameter this reaches every connected alive peer; the cost
// is O(edges) messages — the price unstructured overlays pay versus DHTs.
func (o *Overlay) Flood(origin simnet.NodeID, kind string, size int, payload any, ttl int) {
	env := envelope{
		ID: o.nextID, TTL: ttl, Kind: kind, Size: size,
		Payload: payload, Origin: origin,
	}
	o.nextID++
	o.seen[origin][env.ID] = true
	o.forward(origin, origin, env)
}

func (o *Overlay) forward(self, from simnet.NodeID, env envelope) {
	if env.TTL <= 0 {
		return
	}
	env.TTL--
	for _, nb := range o.neighbors[self] {
		if nb == from {
			continue
		}
		o.net.Send(simnet.Message{
			From: self, To: nb, Kind: "overlay." + env.Kind, Size: env.Size + 16,
			Payload: env,
		})
	}
}

// Gossip broadcasts payload with rumor mongering: each round an infected
// peer pushes to fanout random neighbors; duplicates are suppressed.
// Cheaper than flooding on dense graphs, probabilistic coverage.
func (o *Overlay) Gossip(origin simnet.NodeID, kind string, size int, payload any, fanout int) {
	if fanout <= 0 {
		fanout = 2
	}
	env := envelope{
		ID: o.nextID, TTL: -fanout, Kind: kind, Size: size,
		Payload: payload, Origin: origin,
	}
	o.nextID++
	o.seen[origin][env.ID] = true
	o.push(origin, env, fanout)
}

func (o *Overlay) push(self simnet.NodeID, env envelope, fanout int) {
	nbs := o.neighbors[self]
	if len(nbs) == 0 {
		return
	}
	perm := o.gossipRng[self].Perm(len(nbs))
	for i := 0; i < fanout && i < len(nbs); i++ {
		nb := nbs[perm[i]]
		o.net.Send(simnet.Message{
			From: self, To: nb, Kind: "overlay." + env.Kind, Size: env.Size + 16,
			Payload: env,
		})
	}
}

func (o *Overlay) handle(self simnet.NodeID, net *simnet.Network, m simnet.Message) {
	env, ok := m.Payload.(envelope)
	if !ok {
		return
	}
	key := env.ID
	if o.seen[self][key] {
		return
	}
	o.seen[self][key] = true
	if o.handler != nil {
		o.handler(net, env.Origin, env.Kind, env.Payload)
	}
	if env.TTL < 0 {
		// Gossip envelope: TTL field carries -fanout.
		o.push(self, env, -env.TTL)
		return
	}
	o.forward(self, m.From, env)
}

// Coverage reports how many alive peers have seen a given broadcast id.
// Experiments use it to compare flood vs gossip reliability.
func (o *Overlay) Coverage(broadcastID uint64) int {
	n := 0
	for id, seen := range o.seen {
		if o.net.Alive(id) && seen[broadcastID] {
			n++
		}
	}
	return n
}

// LastBroadcastID returns the id assigned to the most recent broadcast.
func (o *Overlay) LastBroadcastID() uint64 {
	if o.nextID == 0 {
		return 0
	}
	return o.nextID - 1
}
