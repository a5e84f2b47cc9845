package realnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// Transport errors.
var (
	// ErrPeerQuarantined is returned by sends to a peer that exhausted
	// its consecutive-failure budget; the peer is re-probed by the first
	// send after its quarantine expires.
	ErrPeerQuarantined = errors.New("realnet: peer is quarantined")
	// ErrNodeClosed is returned by sends interrupted by Close.
	ErrNodeClosed = errors.New("realnet: node is closed")
)

// PeerStats is one peer's transport counters. Outbound counters are per
// send call: Sends counts calls, Retries the extra dial attempts beyond
// each call's first, Failures the calls that exhausted the whole budget
// (quarantine fast-failures included). FramesOut/BytesOut count frames
// actually delivered to the wire; FramesIn/BytesIn count validated frames
// this peer reported itself the sender of.
type PeerStats struct {
	Sends    int64 `json:"sends"`
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`

	FramesOut int64 `json:"frames_out"`
	BytesOut  int64 `json:"bytes_out"`
	FramesIn  int64 `json:"frames_in"`
	BytesIn   int64 `json:"bytes_in"`

	// Rejects counts inbound generations from this origin that were
	// refused by the Byzantine admission pipeline (quarantined origin,
	// structural validation failure, or holdout-probe failure).
	Rejects int64 `json:"rejects"`

	// ConsecutiveFailures is the current failure streak; Quarantined
	// reports whether the peer is presently fast-failing sends.
	ConsecutiveFailures int  `json:"consecutive_failures"`
	Quarantined         bool `json:"quarantined"`
}

// TransportStats snapshots the node's transport counters: per-peer
// outbound/attributed-inbound accounting plus node-wide totals (inbound
// frames whatever the sender, corrupt or invalid frames, and background
// tasks dropped because the pool was saturated).
type TransportStats struct {
	Peers         map[string]PeerStats `json:"peers"`
	FramesIn      int64                `json:"frames_in"`
	BytesIn       int64                `json:"bytes_in"`
	CorruptFrames int64                `json:"corrupt_frames"`
	DroppedTasks  int64                `json:"dropped_tasks"`
	Rejects       int64                `json:"rejects"`
}

// transport wraps every outbound frame in a retry/timeout/backoff policy
// with per-peer accounting: a bounded dial budget per send, exponential
// backoff whose jitter derives from runner.DeriveSeed (deterministic per
// (seed, peer) — tests can pin the schedule), and dead-peer quarantine so
// a flapping or dead peer costs one fast error instead of a dial budget.
type transport struct {
	cfg  Config
	stop <-chan struct{}

	framesIn atomic.Int64
	bytesIn  atomic.Int64
	corrupt  atomic.Int64
	dropped  atomic.Int64
	rejects  atomic.Int64

	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	sends, retries, failures int64
	framesOut, bytesOut      int64
	framesIn, bytesIn        int64
	rejects                  int64
	consecFails              int
	quarantinedUntil         time.Time
	rng                      *rand.Rand
}

func newTransport(cfg Config, stop <-chan struct{}) *transport {
	return &transport{cfg: cfg, stop: stop, peers: make(map[string]*peerState)}
}

// peerLocked returns (creating if needed) the state for addr. The table is
// capped alongside the membership tables; past the cap an ephemeral state
// is returned so callers never nil-check, at the price of losing counters
// for peers beyond MaxPeers.
func (t *transport) peerLocked(addr string) *peerState {
	ps := t.peers[addr]
	if ps == nil {
		ps = &peerState{rng: rand.New(rand.NewSource(runner.DeriveSeed(t.cfg.Seed, "transport", addr)))}
		if len(t.peers) < t.cfg.MaxPeers {
			t.peers[addr] = ps
		}
	}
	return ps
}

// backoffLocked returns the delay before retry attempt k (1-based): an
// exponential of BackoffBase capped at BackoffMax, plus up to 50% jitter
// drawn from the peer's derived stream. Callers hold t.mu.
func (t *transport) backoffLocked(ps *peerState, attempt int) time.Duration {
	d := t.cfg.BackoffBase << (attempt - 1)
	if d > t.cfg.BackoffMax || d <= 0 {
		d = t.cfg.BackoffMax
	}
	return d + time.Duration(ps.rng.Int63n(int64(d)/2+1))
}

// send delivers one frame to a peer: dial, write, close, retrying up to
// the budget with backoff between attempts. A peer whose sends keep
// failing is quarantined — sends fail fast with ErrPeerQuarantined until
// QuarantineFor passes, after which the next send re-probes it (the
// gossip loop guarantees such a send happens while a generation is
// outstanding).
func (t *transport) send(to string, typ byte, payload []byte) error {
	now := time.Now()
	t.mu.Lock()
	ps := t.peerLocked(to)
	ps.sends++
	if ps.consecFails >= t.cfg.QuarantineAfter && now.Before(ps.quarantinedUntil) {
		ps.failures++
		until := ps.quarantinedUntil
		t.mu.Unlock()
		return fmt.Errorf("%w: %s (re-probe in %v)", ErrPeerQuarantined, to, time.Until(until).Round(time.Millisecond))
	}
	t.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < t.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			t.mu.Lock()
			ps.retries++
			d := t.backoffLocked(ps, attempt)
			t.mu.Unlock()
			select {
			case <-time.After(d):
			case <-t.stop:
				return ErrNodeClosed
			}
		}
		if err := t.dialAndWrite(to, typ, payload); err != nil {
			lastErr = err
			continue
		}
		t.mu.Lock()
		ps.framesOut++
		ps.bytesOut += int64(5 + len(payload))
		ps.consecFails = 0
		ps.quarantinedUntil = time.Time{}
		t.mu.Unlock()
		return nil
	}
	t.mu.Lock()
	ps.failures++
	ps.consecFails++
	if ps.consecFails >= t.cfg.QuarantineAfter {
		ps.quarantinedUntil = time.Now().Add(t.cfg.QuarantineFor)
	}
	t.mu.Unlock()
	return lastErr
}

// dialAndWrite is one delivery attempt: dial-per-message keeps the sender
// stateless and correct (generation publishes are rare events); the retry
// layer above is what absorbs the flakiness this simplicity costs.
func (t *transport) dialAndWrite(to string, typ byte, payload []byte) error {
	conn, err := t.cfg.Dial(to, t.cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	return writeFrame(conn, typ, payload)
}

// creditIn attributes one validated inbound frame to its self-reported
// sender.
func (t *transport) creditIn(peer string, payloadBytes int) {
	t.mu.Lock()
	ps := t.peerLocked(peer)
	ps.framesIn++
	ps.bytesIn += int64(5 + payloadBytes)
	t.mu.Unlock()
}

// noteIn counts one inbound frame (any sender); noteCorrupt counts a
// frame that failed to parse or validate; noteDropped counts a background
// task lost to pool saturation.
func (t *transport) noteIn(payloadBytes int) {
	t.framesIn.Add(1)
	t.bytesIn.Add(int64(5 + payloadBytes))
}
func (t *transport) noteCorrupt() { t.corrupt.Add(1) }
func (t *transport) noteDropped() { t.dropped.Add(1) }

// noteReject charges one admission-pipeline rejection to its origin.
func (t *transport) noteReject(origin string) {
	t.rejects.Add(1)
	t.mu.Lock()
	t.peerLocked(origin).rejects++
	t.mu.Unlock()
}

// snapshot builds a TransportStats copy.
func (t *transport) snapshot() TransportStats {
	out := TransportStats{
		FramesIn:      t.framesIn.Load(),
		BytesIn:       t.bytesIn.Load(),
		CorruptFrames: t.corrupt.Load(),
		DroppedTasks:  t.dropped.Load(),
		Rejects:       t.rejects.Load(),
	}
	now := time.Now()
	t.mu.Lock()
	out.Peers = make(map[string]PeerStats, len(t.peers))
	for addr, ps := range t.peers {
		out.Peers[addr] = PeerStats{
			Sends:               ps.sends,
			Retries:             ps.retries,
			Failures:            ps.failures,
			FramesOut:           ps.framesOut,
			BytesOut:            ps.bytesOut,
			FramesIn:            ps.framesIn,
			BytesIn:             ps.bytesIn,
			Rejects:             ps.rejects,
			ConsecutiveFailures: ps.consecFails,
			Quarantined:         ps.consecFails >= t.cfg.QuarantineAfter && now.Before(ps.quarantinedUntil),
		}
	}
	t.mu.Unlock()
	return out
}

// Transport snapshots the node's per-peer transport counters.
func (n *Node) Transport() TransportStats { return n.tr.snapshot() }
