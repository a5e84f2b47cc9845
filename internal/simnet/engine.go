package simnet

import (
	"fmt"
	"time"
)

// systemSrc is the pseudo-node of the system context: the source of
// system events and of timers for unknown nodes, and the acting node at
// serial points and inside system events, where code may act as any node.
// It sorts before every node id.
const systemSrc = NodeID(-1)

type eventKind uint8

const (
	evTimer eventKind = iota
	evMsg
	evSys
)

// event is a scheduled occurrence: a message delivery, a node timer, or a
// system callback. Events are stored by value in the network's heaps.
//
// The ordering key is (at, src, seq), where src is the node that created
// the event and seq is that node's private creation counter. A node's
// counter advances only in its own events, so the order of every event is
// a function of each node's own history rather than of one global counter.
type event struct {
	at    time.Duration
	src   NodeID // creating node; systemSrc for system-context events
	seq   uint64 // per-source creation counter
	kind  eventKind
	owner NodeID // timers: skipped if owner is down
	fn    func()
	msg   Message
}

func (e event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

type eventHeap = minHeap[event]

// push files an event created by the acting node nd (== n.nodes[acting]).
// Inside a node event the acting node must be the node whose event is
// executing — push panics otherwise — so a node's seq counter advances
// only in its own events.
func (n *Network) push(acting NodeID, nd *node, e event) {
	if n.acting != systemSrc && n.acting != acting {
		panic(fmt.Sprintf("simnet: the handler of node %d sent or scheduled as node %d; "+
			"a handler may only act as its own node", n.acting, acting))
	}
	e.src = acting
	e.seq = nd.seq
	nd.seq++
	n.heap.push(e)
}

// Run processes events until the queue is empty or virtual time exceeds
// until (zero means run to quiescence). It returns the number of events
// processed. Events at exactly until still run. When until is positive the
// clock always lands exactly on until, even if the queue drains earlier,
// so back-to-back RunFor calls advance the clock by exactly their sum.
//
// Node events run in (time, creating node, per-node counter) order; a
// system event at time t runs before every node event at t.
func (n *Network) Run(until time.Duration) int {
	processed := 0
	for {
		sys, nodeEv := n.sysHeap.peek(), n.heap.peek()
		next := nodeEv
		if sys != nil && (nodeEv == nil || sys.at <= nodeEv.at) {
			next = sys
		}
		if next == nil {
			if until > 0 && n.now < until {
				n.now = until
			}
			return processed
		}
		if until > 0 && next.at > until {
			n.now = until
			return processed
		}
		if next.at > n.now {
			n.now = next.at
		}
		if next == sys {
			e := n.sysHeap.pop()
			e.fn()
		} else {
			e := n.heap.pop()
			n.execNode(&e)
		}
		processed++
	}
}

// execNode executes one message delivery or timer as its node.
func (n *Network) execNode(e *event) {
	switch e.kind {
	case evMsg:
		dst, ok := n.nodes[e.msg.To]
		if !ok || !dst.alive {
			n.statsMu.Lock()
			n.stats.MessagesDropped++
			n.statsMu.Unlock()
			n.logAt(e.at, "LOST %s %d->%d (dest down)", e.msg.Kind, e.msg.From, e.msg.To)
			return
		}
		n.statsMu.Lock()
		n.stats.MessagesDelivered++
		n.stats.BytesDelivered += int64(e.msg.Size)
		n.statsMu.Unlock()
		n.acting = e.msg.To
		dst.handler.HandleMessage(n, e.msg)
		n.acting = systemSrc
	default: // evTimer
		if nd, ok := n.nodes[e.owner]; ok && nd.alive {
			n.acting = e.owner
			e.fn()
			n.acting = systemSrc
		}
	}
}

// RunFor advances the simulation by d from the current time.
func (n *Network) RunFor(d time.Duration) int { return n.Run(n.now + d) }
