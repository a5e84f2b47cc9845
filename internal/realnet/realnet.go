// Package realnet is the real-network deployment path of P2PDocTagger,
// backing the paper's claim that "code written for P2PDMT is reusable in
// real applications": actual TCP peers gossip the same calibrated
// one-vs-all tag models (protocol.Bank) the simulator's protocols score
// with, using the binary encodings of internal/wire.
//
// A Node listens on TCP, discovers peers transitively through HELLO
// frames, and gossips whole model generations (see Generation and
// PublishGeneration): an application such as the cmd/p2pserve cluster
// trains a set with TrainModelSet, publishes it as a generation on one
// node, and every reachable node — including peers that were dead or
// partitioned and come back — converges on it through the admission
// pipeline, installing it through its serving front-end as an Ensemble.
// Generation gossip is the only traffic that carries a model set.
//
// The node is built to survive real conditions, not just loopback demos:
//
//   - Every send goes through a retry/timeout/backoff transport — a
//     per-peer dial budget, exponential backoff with jitter derived from
//     runner.DeriveSeed (so tests of the retry schedule are
//     deterministic), and dead-peer quarantine with periodic re-probe.
//     Per-peer counters (sends, retries, failures, frames and bytes in
//     and out) are exposed through Transport.
//   - Read deadlines are refreshed per frame, so a long-lived connection
//     stays alive as long as frames keep arriving.
//   - Self-reported addresses are validated and the peer table and trust
//     ledger are capped, so a malicious frame cannot pollute membership
//     or grow state without bound.
//   - Dials never run on a connection-reader goroutine: introductions and
//     gossip relays go through a bounded background task pool, so one
//     unreachable peer cannot stall frame processing.
package realnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/svm"
	"repro/internal/textproc"
	"repro/internal/vector"
	"repro/internal/wire"
)

// Frame types of the node protocol. Every frame is
// [type byte][length uint32][payload]. Type 2 is retired: like any
// unknown type it has no budget, so it is drained unbuffered and counted
// corrupt.
const (
	frameHello = 1 // payload: sender listen addr + known peer addrs
	frameGen   = 3 // payload: a gossiped model generation (seq, origin, set)
)

// maxFrame bounds a frame payload: a header claiming more closes the
// connection. Below it every frame type has its own budget (frameBudget),
// decided from the header before a payload byte is buffered. A hello
// carries at most maxHelloAddrs addresses, which maxHelloBytes comfortably
// holds.
const (
	maxFrame      = 64 << 20
	maxHelloAddrs = 10000
	maxHelloBytes = 1 << 20
)

// DialFunc dials a peer; tests inject failing dialers to simulate
// partitions and unreachable peers without real network faults.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Config configures a Node. Zero values take the documented defaults.
type Config struct {
	// ListenAddr is the TCP address to listen on ("127.0.0.1:0" picks a
	// free port).
	ListenAddr string
	// Seeds are addresses of existing peers to join through.
	Seeds []string
	// Seed drives the deterministic backoff and trust-quarantine jitter
	// streams.
	Seed int64

	// DialTimeout bounds one dial attempt; default 5s.
	DialTimeout time.Duration
	// WriteTimeout bounds writing one frame after a successful dial;
	// default 10s.
	WriteTimeout time.Duration
	// FrameTimeout is the per-frame read deadline on accepted
	// connections, refreshed before every frame: a connection dies only
	// after this long with no complete frame, never merely for being
	// long-lived. Default 30s.
	FrameTimeout time.Duration
	// MaxAttempts is the per-send dial budget (first try included);
	// default 3.
	MaxAttempts int
	// BackoffBase is the delay before the first retry; attempt k waits
	// BackoffBase<<(k-1) plus jitter, capped at BackoffMax. Defaults
	// 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QuarantineAfter is the number of consecutive failed sends after
	// which a peer is quarantined (sends fail fast instead of dialing);
	// default 3. QuarantineFor is how long a quarantine lasts before the
	// next send re-probes the peer; default 5s.
	QuarantineAfter int
	QuarantineFor   time.Duration
	// GossipInterval is the period of the background gossip loop: a node
	// that originated the current model generation rebroadcasts it every
	// interval, which is also what re-probes quarantined peers once their
	// quarantine expires. Default 2s.
	GossipInterval time.Duration
	// MaxPeers caps the membership table and the trust ledger against
	// floods of invented self-reported addresses; default 256.
	MaxPeers int

	// MaxSetTags and MaxModelDim bound the structure of an inbound model
	// set (tag count and per-model dense dimension); MaxGenBytes bounds
	// the encoded size of an inbound generation frame.
	// Together with the finite-weight scan they are the structural half
	// of the Byzantine admission pipeline. Defaults 4096 tags, 1<<22
	// dims, 32 MiB.
	MaxSetTags  int
	MaxModelDim int
	MaxGenBytes int
	// ProbeDocs, when set, is a small local holdout scoring set: every
	// structurally valid inbound generation is scored against it and
	// rejected when its per-(document, tag) accuracy falls below
	// ProbeFloor (default 0.5 — no better than chance). This is what
	// catches semantically poisoned sets (label flips, scaled weights)
	// whose numbers are individually unremarkable. Nil disables probing.
	ProbeDocs  []TaggedText
	ProbeFloor float64
	// TrustQuarantineFor is the per-origin trust quarantine window: after
	// a rejected publication the origin's generations are refused outright
	// until the window (plus jitter derived from runner.DeriveSeed per
	// origin) expires, and the next publication is the re-probe. Default
	// 5s.
	TrustQuarantineFor time.Duration

	// Dial overrides the dialer; default net.DialTimeout on "tcp".
	Dial DialFunc
	// OnGeneration, when set, is invoked for every accepted gossiped
	// model generation (newer than any seen before). It runs on the
	// background task pool, never on a connection-reader goroutine, and
	// must not call Close.
	OnGeneration func(gen Generation)
}

func (cfg *Config) defaults() {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = 30 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.QuarantineFor == 0 {
		cfg.QuarantineFor = 5 * time.Second
	}
	if cfg.GossipInterval == 0 {
		cfg.GossipInterval = 2 * time.Second
	}
	if cfg.MaxPeers == 0 {
		cfg.MaxPeers = 256
	}
	if cfg.MaxSetTags == 0 {
		cfg.MaxSetTags = 4096
	}
	if cfg.MaxModelDim == 0 {
		cfg.MaxModelDim = 1 << 22
	}
	if cfg.MaxGenBytes == 0 {
		cfg.MaxGenBytes = 32 << 20
	}
	if cfg.ProbeFloor == 0 {
		cfg.ProbeFloor = 0.5
	}
	if cfg.TrustQuarantineFor == 0 {
		cfg.TrustQuarantineFor = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
}

// newHashedPreprocessor is the canonical feature space every realnet peer
// shares: hashed term-frequency features need no coordinated lexicon, so
// independently running peers agree on what every weight index means.
func newHashedPreprocessor() *textproc.Preprocessor {
	return textproc.NewPreprocessor(nil, textproc.Options{
		Weighting: textproc.TermFrequency, Normalize: true,
		HashDim: 1 << 16,
	})
}

// ModelSet is what a node publishes: the calibrated one-vs-all bank the
// simulated protocols score with, per-tag linear models with their Platt
// calibration and cross-validated accuracies. A ModelSet is immutable once
// published and must be handled by pointer.
type ModelSet = protocol.Bank

// toWire converts the set to the wire bank encoding.
func toWire(ms *ModelSet) map[string]wire.CalibratedModel {
	out := make(map[string]wire.CalibratedModel, len(ms.Models))
	for tag, m := range ms.Models {
		out[tag] = wire.CalibratedModel{Model: m, Platt: ms.Platt[tag], Accuracy: ms.Accuracy[tag]}
	}
	return out
}

// clone deep-copies the set — weights included — so a caller may corrupt
// the copy (the adversary harness does exactly that) without violating
// the original's immutability contract. The clone's score matrix is
// rebuilt lazily from the copied weights.
func clone(ms *ModelSet) *ModelSet {
	out := &ModelSet{
		Models:   make(map[string]*svm.LinearModel, len(ms.Models)),
		Platt:    maps.Clone(ms.Platt),
		Accuracy: maps.Clone(ms.Accuracy),
	}
	for tag, m := range ms.Models {
		out.Models[tag] = &svm.LinearModel{W: slices.Clone(m.W), Bias: m.Bias}
	}
	return out
}

// modelSetFromWire rebuilds a set from its wire bank encoding.
func modelSetFromWire(set map[string]wire.CalibratedModel) *ModelSet {
	ms := &ModelSet{
		Models:   make(map[string]*svm.LinearModel, len(set)),
		Platt:    make(map[string]svm.PlattParams, len(set)),
		Accuracy: make(map[string]float64, len(set)),
	}
	for tag, cm := range set {
		ms.Models[tag] = cm.Model
		ms.Platt[tag] = cm.Platt
		ms.Accuracy[tag] = cm.Accuracy
	}
	return ms
}

// TaggedText is one labeled training document for TrainModelSet.
type TaggedText struct {
	Text string
	Tags []string
}

// TrainModelSet trains the per-tag calibrated linear bank realnet peers
// publish, from labeled documents, in the canonical hashed feature space
// every peer shares. The result is deterministic in (docs, c, seed):
// independently training nodes with identical inputs produce identical
// sets, which is what lets a cluster verify byte-identical answers.
func TrainModelSet(docs []TaggedText, c float64, seed int64) (*ModelSet, error) {
	if c == 0 {
		c = 1
	}
	pre := newHashedPreprocessor()
	pdocs := make([]protocol.Doc, 0, len(docs))
	for _, d := range docs {
		if len(d.Tags) == 0 {
			continue
		}
		pdocs = append(pdocs, protocol.Doc{X: pre.Vectorize(d.Text), Tags: d.Tags})
	}
	if len(pdocs) == 0 {
		return nil, errors.New("realnet: no tagged documents to learn from")
	}
	// Each model is pruned to compress the wire payload.
	ms := protocol.TrainBank(pdocs, c, seed, 1, func(m *svm.LinearModel) *svm.LinearModel {
		return m.Pruned(0.02)
	})
	if len(ms.Models) == 0 {
		return nil, errors.New("realnet: local documents are one-class; tag more variety first")
	}
	return ms, nil
}

// Node is one real-network tagging peer. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg   Config
	ln    net.Listener
	tr    *transport
	trust *trustLedger
	probe []probeDoc // vectorized holdout scoring set, immutable after Start

	mu         sync.Mutex
	peers      map[string]bool // known peer listen addresses
	cur        *Generation     // newest gossiped generation seen or published
	curPayload []byte          // cur's encoded frame, for relays and rebroadcast
	conns      map[net.Conn]bool

	tasks     chan func()
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// taskWorkers bounds concurrent background dials (introductions, relays,
// rebroadcasts); taskQueue bounds how many wait. A saturated queue drops
// work — gossip is periodic and hellos re-trigger on later frames, so a
// drop costs convergence time, never correctness.
const (
	taskWorkers = 2
	taskQueue   = 256
)

// Start launches a node: it listens, joins through the seeds and begins
// accepting generation gossip.
func Start(cfg Config) (*Node, error) {
	cfg.defaults()
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen: %w", err)
	}
	n := &Node{
		cfg:   cfg,
		ln:    ln,
		peers: make(map[string]bool),
		conns: make(map[net.Conn]bool),
		tasks: make(chan func(), taskQueue),
		stop:  make(chan struct{}),
	}
	n.tr = newTransport(cfg, n.stop)
	n.trust = newTrustLedger(cfg.Seed, cfg.TrustQuarantineFor, cfg.MaxPeers)
	pre := newHashedPreprocessor()
	for _, d := range cfg.ProbeDocs {
		if len(d.Tags) == 0 {
			continue
		}
		has := make(map[string]bool, len(d.Tags))
		for _, tag := range d.Tags {
			has[tag] = true
		}
		n.probe = append(n.probe, probeDoc{x: pre.Vectorize(d.Text), has: has})
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for i := 0; i < taskWorkers; i++ {
		n.wg.Add(1)
		go n.taskLoop()
	}
	n.wg.Add(1)
	go n.gossipLoop()
	for _, s := range cfg.Seeds {
		n.addPeer(s)
	}
	// Announce ourselves to the seeds so they learn our address; off the
	// caller's goroutine, since a dead seed costs a full retry budget.
	n.async(func() { n.broadcastHello() })
	return n, nil
}

// Addr returns the node's actual listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the listener, interrupts in-flight backoff sleeps, closes
// accepted connections and waits for every node goroutine to exit.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.stop)
		err = n.ln.Close()
		// Snapshot under the lock, close outside it: Conn.Close can block
		// on the socket, and handler goroutines need n.mu to deregister
		// themselves — holding it here would stall the very goroutines
		// wg.Wait is about to wait for.
		n.mu.Lock()
		conns := make([]net.Conn, 0, len(n.conns))
		for c := range n.conns {
			//dmtvet:allow maprange close order is irrelevant: every conn is closed exactly once and nothing observes the sequence
			conns = append(conns, c)
		}
		n.mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
		n.wg.Wait()
	})
	return err
}

// Peers returns the currently known peer addresses, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PublishSummary reports a broadcast's outcome: how many peers were
// reached, and the final error for each peer that was not (after the full
// retry budget, or immediately for quarantined peers). A partial failure
// is visible here and in the Transport counters, never silent.
type PublishSummary struct {
	Reached int
	Failed  map[string]error
}

// AllReached reports whether every known peer accepted the broadcast.
func (s PublishSummary) AllReached() bool { return len(s.Failed) == 0 }

// broadcast sends one frame to every known peer through the retrying
// transport and reports the per-peer outcome.
func (n *Node) broadcast(typ byte, payload []byte) PublishSummary {
	var sum PublishSummary
	for _, p := range n.Peers() {
		if err := n.tr.send(p, typ, payload); err != nil {
			if sum.Failed == nil {
				sum.Failed = make(map[string]error)
			}
			sum.Failed[p] = err
		} else {
			sum.Reached++
		}
	}
	return sum
}

// probeDoc is one vectorized holdout document for the admission probe.
type probeDoc struct {
	x   *vector.Sparse
	has map[string]bool
}

// probeAccuracy scores an inbound set against the node's local holdout
// documents: for every (document, tag-in-set) pair, does the calibrated
// model agree with the local labels? Honest sets trained on comparable
// corpora score well above chance; label-flipped or sign-scaled poison
// scores below it. Runs with local scratch only — safe from concurrent
// reader goroutines.
func (n *Node) probeAccuracy(ms *ModelSet) float64 {
	tags := ms.Tags()
	if len(tags) == 0 {
		return 0
	}
	correct, total := 0, 0
	var probs []float64
	for _, pd := range n.probe {
		probs = ms.Probs(pd.x.Entries(), probs)
		for i, tag := range tags {
			predicted := probs[i] >= 0.5
			if predicted == pd.has[tag] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(correct) / float64(total)
}

// ---------------------------------------------------------------------------
// Networking

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.conns[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer func() {
				n.mu.Lock()
				delete(n.conns, conn)
				n.mu.Unlock()
				conn.Close()
			}()
			n.handleConn(conn)
		}()
	}
}

func (n *Node) handleConn(conn net.Conn) {
	budget := n.frameBudget
	for {
		// Refresh the read deadline per frame: a connection dies after
		// FrameTimeout of silence, never merely for being long-lived.
		// (Regression: a single deadline set at accept killed an actively
		// gossiping connection 30s in, mid-frame-stream.)
		_ = conn.SetReadDeadline(time.Now().Add(n.cfg.FrameTimeout))
		typ, payload, err := readFrame(conn, budget)
		if errors.Is(err, errOverBudget) {
			// Drained, never buffered; the connection is still in frame sync.
			n.tr.noteCorrupt()
			continue
		}
		if err != nil {
			if err != io.EOF {
				n.tr.noteCorrupt()
			}
			return
		}
		n.tr.noteIn(len(payload))
		switch typ {
		case frameHello:
			n.onHello(payload)
		case frameGen:
			n.onGeneration(payload)
		default:
			n.tr.noteCorrupt()
		}
	}
}

// frameBudget is the payload size a frame of the given type may claim: the
// size stage of the admission pipeline, applied to the header alone. A
// type this node does not speak — the retired type 2 included — has no
// budget at all, so its payload is drained unbuffered and counted corrupt.
func (n *Node) frameBudget(typ byte) int {
	switch typ {
	case frameHello:
		return maxHelloBytes
	case frameGen:
		return n.cfg.MaxGenBytes
	}
	return 0
}

// validAddr reports whether a self-reported peer address is usable: a
// parseable host:port with both parts non-empty, and not this node itself.
// Spoofing cannot be ruled out without authentication, but an invalid or
// empty origin must never enter the membership table or the trust ledger.
func (n *Node) validAddr(a string) bool {
	if a == "" || a == n.ln.Addr().String() {
		return false
	}
	host, port, err := net.SplitHostPort(a)
	return err == nil && host != "" && port != ""
}

func (n *Node) onHello(payload []byte) {
	addrs, err := decodeHello(payload)
	if err != nil || len(addrs) == 0 {
		n.tr.noteCorrupt()
		return
	}
	// First address is the sender; the rest are its known peers
	// (transitive discovery). Invalid addresses are dropped and the
	// membership table is capped — a hello cannot grow state unbounded.
	sender := addrs[0]
	var fresh []string
	n.mu.Lock()
	for _, a := range addrs {
		if !n.validAddr(a) || n.peers[a] {
			continue
		}
		if len(n.peers) >= n.cfg.MaxPeers {
			break
		}
		n.peers[a] = true
		fresh = append(fresh, a)
	}
	curPayload := n.curPayload
	n.mu.Unlock()
	if n.validAddr(sender) {
		n.tr.creditIn(sender, len(payload))
	}
	// Introduce ourselves to newly learned peers — never on this reader
	// goroutine: one unreachable "fresh" peer would otherwise stall frame
	// processing for a full dial budget per address. Fresh peers also get
	// the current model generation, so late joiners and restarted peers
	// catch up without waiting for the origin's next rebroadcast.
	for _, a := range fresh {
		a := a
		n.async(func() { n.sendHello(a) })
		if curPayload != nil {
			n.async(func() { _ = n.tr.send(a, frameGen, curPayload) })
		}
	}
}

// admit is the trust half of onGeneration's admission pipeline; the
// caller has already applied the size budget, checked the digest, decoded
// the frame, vetted the origin address and dropped stale (Seq, Origin)
// echoes. A quarantined origin is refused outright; a structurally invalid
// set, or one scoring under ProbeFloor on the holdout probe (when
// configured), halves its origin's trust score and quarantines it;
// anything else is credited to it. Every refusal is charged to the origin
// in the transport counters.
func (n *Node) admit(origin string, set *ModelSet, now time.Time) bool {
	if !n.trust.admitted(origin, now) {
		n.tr.noteReject(origin)
		return false
	}
	if validateModelSet(set, n.cfg.MaxSetTags, n.cfg.MaxModelDim) != nil ||
		(len(n.probe) > 0 && n.probeAccuracy(set) < n.cfg.ProbeFloor) {
		n.trust.reject(origin, now)
		n.tr.noteReject(origin)
		return false
	}
	n.trust.accept(origin, now)
	return true
}

func (n *Node) addPeer(addr string) {
	n.mu.Lock()
	if addr != "" && addr != n.ln.Addr().String() && len(n.peers) < n.cfg.MaxPeers {
		n.peers[addr] = true
	}
	n.mu.Unlock()
}

func (n *Node) broadcastHello() PublishSummary {
	return n.broadcast(frameHello, n.helloPayload())
}

func (n *Node) sendHello(to string) error {
	return n.tr.send(to, frameHello, n.helloPayload())
}

// helloPayload introduces this node: its own address, then every peer it
// knows.
func (n *Node) helloPayload() []byte {
	return encodeHello(append([]string{n.Addr()}, n.Peers()...))
}

// async runs f on the background task pool — work (dials, relays) that
// must not run on a connection-reader goroutine. A saturated pool drops
// the task and counts it in Transport().DroppedTasks.
func (n *Node) async(f func()) {
	select {
	case n.tasks <- f:
	default:
		n.tr.noteDropped()
	}
}

func (n *Node) taskLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case f := <-n.tasks:
			f()
		}
	}
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := [5]byte{typ}
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// errOverBudget is readFrame's verdict on a frame whose header claimed more
// than its type's budget: the payload was drained and the reader is at the
// next frame.
var errOverBudget = errors.New("realnet: frame exceeds its budget")

// readFrame reads one frame. What a frame may cost is decided from its
// 5-byte header alone: a payload over budget(typ) is drained unbuffered
// and reported as errOverBudget, so a header is never worth more memory
// than the budget the operator configured, and never worth any for as long
// as the sender then stalls.
func readFrame(r io.Reader, budget func(typ byte) int) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, size := hdr[0], binary.LittleEndian.Uint32(hdr[1:])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("realnet: frame of %d bytes exceeds limit", size)
	}
	if int(size) > budget(typ) {
		if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
			return 0, nil, fmt.Errorf("realnet: draining an over-budget frame: %w", err)
		}
		return typ, nil, errOverBudget
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// ---------------------------------------------------------------------------
// Payload encodings: wire's append-style encoders and its bounds-checked
// Cursor, the same two primitives the model-set codec is written on.

// encodeHello lays a hello out as [n uint16] then n address strings. An
// address too long to encode (only a misconfigured seed could be; the rest
// came out of a listener or a u16-prefixed frame) is left out, and the
// receiver refuses the short frame.
func encodeHello(addrs []string) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(addrs)))
	for _, a := range addrs {
		b, _ = wire.AppendString(b, a)
	}
	return b
}

func decodeHello(payload []byte) ([]string, error) {
	c := wire.NewCursor(payload)
	n := int(c.U16())
	if n > maxHelloAddrs {
		return nil, fmt.Errorf("realnet: hello claims %d addresses: %w", n, wire.ErrCorrupt)
	}
	// Not pre-sized from n: the count is a claim, the addresses are bytes.
	var out []string
	for i := 0; i < n && c.Err() == nil; i++ {
		out = append(out, c.Str())
	}
	if c.Err() != nil {
		return nil, fmt.Errorf("realnet: hello: %w", c.Err())
	}
	return out, nil
}
