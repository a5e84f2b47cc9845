// Package simnet is a deterministic discrete-event simulator of a physical
// P2P network — the bottom layer of the P2PDMT toolkit (Fig. 2 of the
// paper: "Configure physical network / Simulate physical network / Simulate
// node failures"). Nodes exchange messages with configurable latency, every
// message is charged its wire size, and churn processes take nodes up and
// down according to session-length distributions.
//
// # Determinism
//
// The engine is one event heap and one virtual clock, driven by Run on the
// calling goroutine. A run's observable results — Stats, per-node message
// sequences, protocol outcomes — are a pure function of the seed and the
// inputs. Three disciplines make that hold:
//
//  1. Every event is keyed (time, creating node, per-node counter), so the
//     order of a node's events is a function of that node's own history,
//     not of a global counter. System events (churn, stabilizers) have
//     their own heap, and one due at time t runs before every node event
//     at t.
//  2. Every node draws its latency jitter and message-loss decisions from
//     a private random stream derived via runner.DeriveSeed(seed, node),
//     so a node's draws are a pure function of its own event history.
//     Churn draws likewise come from per-node streams.
//  3. Inside a node event a handler may act only as its own node: it may
//     Send messages from itself and Schedule timers on itself, but must
//     not call ScheduleSystem, Kill, Revive, AddNode or RemoveNode (the
//     engine panics if it does), and must not touch another node's
//     mutable state. System events and code running between Run calls may
//     act as anyone.
//
// Rule 3 keeps every node a self-contained state machine: what it does
// depends only on the messages and timers it receives, which is what
// keeps a protocol's traffic — and the order above — independent of how
// other nodes' events interleave. Protocol state shared between nodes is
// read-only while the clock runs.
package simnet

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/runner"
)

// NodeID identifies a simulated node.
type NodeID int

// Message is a simulated datagram. Size is the number of wire bytes charged
// to the network; Payload is passed to the destination handler by reference
// (the simulator models transfer cost, not marshaling).
type Message struct {
	From, To NodeID
	Kind     string
	Size     int
	Payload  any
}

// Handler receives messages delivered to a node.
type Handler interface {
	HandleMessage(net *Network, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, msg Message)

// HandleMessage calls f.
func (f HandlerFunc) HandleMessage(net *Network, msg Message) { f(net, msg) }

// LifecycleHandler is an optional extension: nodes implementing it are told
// when churn takes them down or brings them back.
type LifecycleHandler interface {
	NodeDown(net *Network)
	NodeUp(net *Network)
}

// LatencyModel yields the one-way delay for a message.
type LatencyModel interface {
	Delay(rng *rand.Rand, from, to NodeID) time.Duration
}

// FixedLatency delays every message by a constant.
type FixedLatency time.Duration

// Delay returns the constant delay.
func (f FixedLatency) Delay(*rand.Rand, NodeID, NodeID) time.Duration {
	return time.Duration(f)
}

// UniformLatency draws delays uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Delay returns a uniform random delay.
func (u UniformLatency) Delay(rng *rand.Rand, _, _ NodeID) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// ClusteredLatency models a two-level topology: nodes in the same cluster
// (id / ClusterSize) see Local delay, others see Remote delay, both with
// ±Jitter uniform noise. It approximates OverSim's grouped underlay.
type ClusteredLatency struct {
	ClusterSize   int
	Local, Remote time.Duration
	Jitter        time.Duration
}

// Delay returns the topology-dependent delay.
func (c ClusteredLatency) Delay(rng *rand.Rand, from, to NodeID) time.Duration {
	base := c.Remote
	if c.ClusterSize > 0 && int(from)/c.ClusterSize == int(to)/c.ClusterSize {
		base = c.Local
	}
	if c.Jitter > 0 {
		base += time.Duration(rng.Int63n(int64(2*c.Jitter))) - c.Jitter
	}
	if base < 0 {
		base = 0
	}
	return base
}

type node struct {
	handler Handler
	alive   bool
	rng     *rand.Rand // private stream: latency jitter and drop decisions
	seq     uint64     // event-creation counter (the deterministic tie-break)
}

// Stats accumulates traffic and liveness counters for a run.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	MessagesDropped   int64 // dead destination or random loss
	BytesSent         int64
	BytesDelivered    int64
	BytesByKind       map[string]int64
	MessagesByKind    map[string]int64
	BytesByNode       map[NodeID]int64 // bytes sent per node
	Failures          int64            // churn down events
	Recoveries        int64            // churn up events
}

func newStats() Stats {
	return Stats{
		BytesByKind:    make(map[string]int64),
		MessagesByKind: make(map[string]int64),
		BytesByNode:    make(map[NodeID]int64),
	}
}

// Options configures a Network.
type Options struct {
	// Latency is the delay model; default FixedLatency(50ms).
	Latency LatencyModel
	// DropRate is the probability a message is silently lost in transit.
	DropRate float64
	// Seed drives latency jitter, drops and churn. Every node's private
	// stream is derived from it with runner.DeriveSeed.
	Seed int64
}

// Network is the simulated physical network. All methods must be called
// from a single goroutine (handlers run inline during Run), with one
// exception: Stats and ResetStats are safe to call concurrently with a
// running simulation, so monitoring goroutines (a serving front-end's
// /v1/stats endpoint, a benchmark's progress reader) can observe traffic
// counters while another goroutine drives the virtual clock.
type Network struct {
	now     time.Duration // time of the executing or last executed event
	nodes   map[NodeID]*node
	latency LatencyModel
	drop    float64
	seed    int64
	rng     *rand.Rand // setup/system stream; see Rand
	heap    eventHeap  // node events: messages and timers
	sysHeap eventHeap  // system events
	sysSeq  uint64
	acting  NodeID // node whose event is executing, else systemSrc
	logf    func(format string, args ...any)

	statsMu sync.Mutex // guards stats; see Stats
	stats   Stats
}

// New returns an empty network.
func New(opts Options) *Network {
	lat := opts.Latency
	if lat == nil {
		lat = FixedLatency(50 * time.Millisecond)
	}
	return &Network{
		nodes:   make(map[NodeID]*node),
		latency: lat,
		drop:    opts.DropRate,
		seed:    opts.Seed,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		acting:  systemSrc,
		stats:   newStats(),
	}
}

// SetLogf installs an activity logger; nil disables logging.
func (n *Network) SetLogf(logf func(format string, args ...any)) { n.logf = logf }

func (n *Network) logAt(at time.Duration, format string, args ...any) {
	if n.logf != nil {
		n.logf("[%8.3fs] "+format, append([]any{at.Seconds()}, args...)...)
	}
}

// serialOnly panics when called inside a node event: the method mutates
// cross-node state, which only serial points (between Run calls) and
// system events may do.
func (n *Network) serialOnly(method string) {
	if n.acting != systemSrc {
		panic("simnet: " + method + " called from a node event handler; " +
			"only system events and code between runs may use it")
	}
}

// AddNode registers a node with its message handler. Adding an existing id
// replaces its handler, revives it, and resets its private random stream
// and event counter (a re-added node is a fresh node).
func (n *Network) AddNode(id NodeID, h Handler) {
	n.serialOnly("AddNode")
	n.nodes[id] = &node{
		handler: h,
		alive:   true,
		rng:     rand.New(rand.NewSource(runner.DeriveSeed(n.seed, "node", strconv.Itoa(int(id))))),
	}
}

// RemoveNode deletes a node entirely (distinct from churn, which only marks
// it down).
func (n *Network) RemoveNode(id NodeID) {
	n.serialOnly("RemoveNode")
	delete(n.nodes, id)
}

// Nodes returns all registered node ids in ascending order.
func (n *Network) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AliveNodes returns the ids of all currently-up nodes in ascending order.
func (n *Network) AliveNodes() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id, nd := range n.nodes {
		if nd.alive {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Alive reports whether id exists and is up.
func (n *Network) Alive(id NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.alive
}

// Now returns the current virtual time: inside a handler, the time of the
// event it is handling.
func (n *Network) Now() time.Duration { return n.now }

// Rand exposes the setup stream: deterministic randomness tied to the run
// seed for topology construction and other serial-point choices. Handlers
// must not draw from it during a run — use NodeRand(self) instead, whose
// draws depend only on the node's own event history.
func (n *Network) Rand() *rand.Rand { return n.rng }

// NodeRand returns a node's private random stream, derived from the run
// seed and the node id. A handler may draw from its own node's stream
// only; the draws are then a pure function of the node's event history.
// NodeRand panics on unknown ids.
func (n *Network) NodeRand(id NodeID) *rand.Rand {
	nd, ok := n.nodes[id]
	if !ok {
		panic(fmt.Sprintf("simnet: NodeRand of unknown node %d", id))
	}
	return nd.rng
}

// Stats returns a snapshot of the accumulated counters. It is safe to call
// from any goroutine, including while another goroutine runs the
// simulation; the snapshot is taken under one lock, so its totals are
// mutually consistent (a concurrent reader can never observe more
// deliveries than sends).
func (n *Network) Stats() Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	out := n.stats
	out.BytesByKind = maps.Clone(n.stats.BytesByKind)
	out.MessagesByKind = maps.Clone(n.stats.MessagesByKind)
	out.BytesByNode = maps.Clone(n.stats.BytesByNode)
	return out
}

// ResetStats zeroes the traffic counters (used between the training and
// prediction phases of an experiment so each phase is accounted
// separately). Like Stats, it is safe to call from any goroutine.
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	n.stats = newStats()
	n.statsMu.Unlock()
}

// Send schedules msg for delivery after the model latency. Sending from a
// dead node is a programming error and panics; sending to a dead or unknown
// node silently drops (that is what a real network does). A handler may
// send only as its own node.
func (n *Network) Send(msg Message) {
	nd, ok := n.nodes[msg.From]
	if !ok || !nd.alive {
		panic(fmt.Sprintf("simnet: send from dead or unknown node %d", msg.From))
	}
	n.statsMu.Lock()
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(msg.Size)
	n.stats.BytesByKind[msg.Kind] += int64(msg.Size)
	n.stats.MessagesByKind[msg.Kind]++
	n.stats.BytesByNode[msg.From] += int64(msg.Size)
	n.statsMu.Unlock()
	if n.drop > 0 && nd.rng.Float64() < n.drop {
		n.statsMu.Lock()
		n.stats.MessagesDropped++
		n.statsMu.Unlock()
		n.logAt(n.now, "DROP %s %d->%d (%dB)", msg.Kind, msg.From, msg.To, msg.Size)
		return
	}
	delay := n.latency.Delay(nd.rng, msg.From, msg.To)
	n.push(msg.From, nd, event{at: n.now + delay, kind: evMsg, msg: msg})
}

// Schedule runs fn after delay, provided owner is still alive at that time.
// A handler may schedule only on its own node.
func (n *Network) Schedule(owner NodeID, delay time.Duration, fn func()) {
	e := event{at: n.now + delay, kind: evTimer, owner: owner, fn: fn}
	if nd, ok := n.nodes[owner]; ok {
		n.push(owner, nd, e)
		return
	}
	// Unknown owner: the timer is filed under the system counter and
	// checked for liveness when it fires (where it will be skipped unless
	// the node appeared in the meantime).
	n.serialOnly("Schedule for an unknown node")
	e.src = systemSrc
	e.seq = n.sysSeq
	n.sysSeq++
	n.heap.push(e)
}

// ScheduleSystem runs fn after delay regardless of node liveness; churn and
// measurement processes use it. System events run between node events, so
// — unlike node handlers — they may touch any node's state.
// Handlers must not call it; schedule system work from system events or
// between runs.
func (n *Network) ScheduleSystem(delay time.Duration, fn func()) {
	n.serialOnly("ScheduleSystem")
	n.sysHeap.push(event{at: n.now + delay, src: systemSrc, seq: n.sysSeq, kind: evSys, fn: fn})
	n.sysSeq++
}

// Kill marks a node down, notifying its LifecycleHandler. In-flight
// messages to it are dropped at delivery time. Serial points and system
// events only.
func (n *Network) Kill(id NodeID) {
	n.serialOnly("Kill")
	nd, ok := n.nodes[id]
	if !ok || !nd.alive {
		return
	}
	nd.alive = false
	n.statsMu.Lock()
	n.stats.Failures++
	n.statsMu.Unlock()
	n.logAt(n.now, "DOWN node %d", id)
	if lh, ok := nd.handler.(LifecycleHandler); ok {
		lh.NodeDown(n)
	}
}

// Revive brings a node back up, notifying its LifecycleHandler. Serial
// points and system events only.
func (n *Network) Revive(id NodeID) {
	n.serialOnly("Revive")
	nd, ok := n.nodes[id]
	if !ok || nd.alive {
		return
	}
	nd.alive = true
	n.statsMu.Lock()
	n.stats.Recoveries++
	n.statsMu.Unlock()
	n.logAt(n.now, "UP   node %d", id)
	if lh, ok := nd.handler.(LifecycleHandler); ok {
		lh.NodeUp(n)
	}
}
