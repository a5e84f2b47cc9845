package realnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// failDial fails every outbound dial immediately. Hardening tests hand
// their node invented peer addresses; this keeps the resulting background
// introduction dials from touching the real network (or hanging on an
// unroutable address) without changing what the tests observe inbound.
func failDial(addr string, timeout time.Duration) (net.Conn, error) {
	return nil, errors.New("injected: outbound disabled")
}

// rawDial opens a plain TCP connection to a node for hand-crafted frames.
func rawDial(t *testing.T, nd *Node) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// writeGen writes one generation frame to conn.
func writeGen(t *testing.T, conn net.Conn, seq uint64, origin string, set *ModelSet) {
	t.Helper()
	payload, err := encodeGeneration(Generation{Seq: seq, Origin: origin, Set: set})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameGen, payload); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineRefreshedPerFrame is the regression test for the stale-
// deadline bug: one deadline set at accept killed an actively used
// connection once the deadline passed, mid-gossip. Frames now refresh the
// read deadline, so a connection survives as long as each frame arrives
// within FrameTimeout — even when its total lifetime is many times the
// timeout.
func TestDeadlineRefreshedPerFrame(t *testing.T) {
	nd, err := Start(Config{Seed: 1, FrameTimeout: 250 * time.Millisecond,
		Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	conn := rawDial(t, nd)
	// 6 frames, 100ms apart: the connection lives ~600ms, far past the
	// 250ms window the old code allowed, while each inter-frame gap stays
	// inside it.
	const frames = 6
	for i := 0; i < frames; i++ {
		if err := writeFrame(conn, frameHello, encodeHello([]string{"10.9.9.9:7001"})); err != nil {
			t.Fatalf("frame %d refused: %v (connection killed by stale deadline?)", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	waitFor(t, "all frames processed", func() bool {
		return nd.Transport().FramesIn >= frames
	})
	// And the refreshed deadline still fires: with no further frames the
	// connection must die after FrameTimeout, not linger forever.
	waitFor(t, "idle connection reaped", func() bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return len(nd.conns) == 0
	})
}

// TestCorruptFrames drives malformed input at a node: oversized length
// prefixes, truncated payloads, unknown frame types and garbage payloads
// must be counted and survived, never crash the node or poison its state.
func TestCorruptFrames(t *testing.T) {
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// Oversized: a frame claiming maxFrame+1 bytes must be refused before
	// any allocation.
	over := rawDial(t, nd)
	var hdr [5]byte
	hdr[0] = frameGen
	binary.LittleEndian.PutUint32(hdr[1:], maxFrame+1)
	if _, err := over.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized frame counted", func() bool {
		return nd.Transport().CorruptFrames >= 1
	})

	// Truncated: a frame that promises more payload than it delivers.
	trunc := rawDial(t, nd)
	binary.LittleEndian.PutUint32(hdr[1:], 1000)
	if _, err := trunc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := trunc.Write([]byte("short")); err != nil {
		t.Fatal(err)
	}
	trunc.Close()
	waitFor(t, "truncated frame counted", func() bool {
		return nd.Transport().CorruptFrames >= 2
	})

	// Unknown type and garbage payloads: the connection keeps processing
	// later valid frames.
	conn := rawDial(t, nd)
	if err := writeFrame(conn, 99, []byte("whatever")); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameGen, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, encodeHello([]string{"10.8.8.8:7002"})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid frame after garbage still processed", func() bool {
		for _, p := range nd.Peers() {
			if p == "10.8.8.8:7002" {
				return true
			}
		}
		return false
	})
	if got := nd.Transport().CorruptFrames; got < 4 {
		t.Errorf("CorruptFrames = %d, want >= 4", got)
	}
	if cur, ok := nd.CurrentGeneration(); ok {
		t.Errorf("garbage generation frame installed (%d, %s)", cur.Seq, cur.Origin)
	}
}

// TestSpoofedSenderRejected covers the origin-validation bugfix:
// generations whose self-reported origin is empty or unparseable are
// counted corrupt, and neither those nor one claiming the node's own
// address (dropped as its own broadcast reflected back) install, enter the
// peer table or reach the trust ledger.
func TestSpoofedSenderRejected(t *testing.T) {
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	invalid := []string{"", "not-an-address", ":7777", "1.2.3.4:"}
	spoofed := append(invalid, nd.Addr())
	for _, origin := range spoofed {
		writeGen(t, conn, 5, origin, set)
	}
	// A valid origin on the same connection still installs, proving the
	// refusals above were per-frame, not connection-fatal.
	const valid = "10.7.7.7:7003"
	writeGen(t, conn, 1, valid, set)
	waitFor(t, "valid origin installed", func() bool {
		cur, ok := nd.CurrentGeneration()
		return ok && cur.Seq == 1 && cur.Origin == valid
	})
	if got := nd.Transport().CorruptFrames; got != int64(len(invalid)) {
		t.Errorf("CorruptFrames = %d, want %d invalid origins counted", got, len(invalid))
	}
	for _, bad := range spoofed {
		if slices.Contains(nd.Peers(), bad) {
			t.Errorf("spoofed origin %q entered the peer table", bad)
		}
		if _, seen := nd.Trust().Origins[bad]; seen {
			t.Errorf("spoofed origin %q reached the trust ledger", bad)
		}
	}
}

// TestSizeBudgetBeforeDecode pins the first admission stage: a
// generation over MaxGenBytes is refused before the decoder runs — so even
// a perfectly honest oversize set is counted corrupt, charges no origin,
// and installs nothing — while an in-budget generation on the same
// connection is still admitted afterwards.
func TestSizeBudgetBeforeDecode(t *testing.T) {
	small, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := TrainModelSet(append(append(trainingTexts(0), trainingTexts(1)...), trainingTexts(2)...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const bigOrigin, okOrigin = "10.6.0.1:7000", "10.6.0.4:7000"
	bigGen, err := encodeGeneration(Generation{Seq: 9, Origin: bigOrigin, Set: big})
	if err != nil {
		t.Fatal(err)
	}
	okGen, err := encodeGeneration(Generation{Seq: 1, Origin: okOrigin, Set: small})
	if err != nil {
		t.Fatal(err)
	}
	budget := len(okGen)
	if len(bigGen) <= budget {
		t.Fatalf("fixture: oversize frame (%d bytes) fits the %d-byte budget", len(bigGen), budget)
	}
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1, MaxGenBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// A connection processes its frames in order, so once the trailing
	// hello's peer shows up the oversize frame has been dealt with.
	conn := rawDial(t, nd)
	if err := writeFrame(conn, frameGen, bigGen); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, encodeHello([]string{"10.6.0.9:7000"})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hello after the oversize frame processed", func() bool {
		return slices.Contains(nd.Peers(), "10.6.0.9:7000")
	})
	if got := nd.Transport().CorruptFrames; got != 1 {
		t.Errorf("CorruptFrames = %d, want the oversize frame counted", got)
	}
	if cur, ok := nd.CurrentGeneration(); ok {
		t.Errorf("oversize generation (%d, %s) installed", cur.Seq, cur.Origin)
	}
	if o, seen := nd.Trust().Origins[bigOrigin]; seen {
		t.Errorf("oversize frame reached the trust ledger: %+v", o)
	}

	if err := writeFrame(conn, frameGen, okGen); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "in-budget generation admitted", func() bool {
		cur, ok := nd.CurrentGeneration()
		return ok && cur.Seq == 1 && cur.Origin == okOrigin
	})
	if got := nd.Transport().CorruptFrames; got != 1 {
		t.Errorf("CorruptFrames = %d after an in-budget frame, want still 1", got)
	}
}

// TestRetiredModelFrameDrained pins the retirement of frame type 2, the
// per-peer model broadcast: a well-formed former model frame (sender
// address plus a model set) is drained unbuffered as an unknown type and
// counted corrupt — nothing installs and its sender never reaches the
// trust ledger — while a generation frame behind it on the same connection
// still installs, so the reader kept frame sync.
func TestRetiredModelFrameDrained(t *testing.T) {
	const retiredType = 2
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sender, origin = "10.5.0.1:7000", "10.5.0.2:7000"
	payload, err := wire.AppendString(nil, sender)
	if err != nil {
		t.Fatal(err)
	}
	if payload, err = wire.AppendModelSet(payload, toWire(set)); err != nil {
		t.Fatal(err)
	}
	nd, err := Start(Config{Seed: 1, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if got := nd.frameBudget(retiredType); got != 0 {
		t.Fatalf("frameBudget(%d) = %d, want 0", retiredType, got)
	}

	conn := rawDial(t, nd)
	if err := writeFrame(conn, retiredType, payload); err != nil {
		t.Fatal(err)
	}
	writeGen(t, conn, 1, origin, set)
	waitFor(t, "generation behind the retired frame installed", func() bool {
		cur, ok := nd.CurrentGeneration()
		return ok && cur.Seq == 1 && cur.Origin == origin
	})
	st := nd.Transport()
	if st.CorruptFrames != 1 {
		t.Errorf("CorruptFrames = %d, want the retired frame counted", st.CorruptFrames)
	}
	// Only buffered frames count in: the generation, not the drained one.
	if st.FramesIn != 1 {
		t.Errorf("FramesIn = %d, want 1: the retired frame was buffered", st.FramesIn)
	}
	if _, seen := nd.Trust().Origins[sender]; seen {
		t.Errorf("retired frame's sender %s reached the trust ledger", sender)
	}
	if slices.Contains(nd.Peers(), sender) {
		t.Errorf("retired frame's sender %s entered the peer table", sender)
	}
}

// TestPeerTableCapped floods a node with invented peer addresses, in
// hellos and as the origins of ever-newer generations; the membership
// table and the trust ledger must stop growing at MaxPeers.
func TestPeerTableCapped(t *testing.T) {
	nd, err := Start(Config{Seed: 1, MaxPeers: 4, Dial: failDial, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	const flood = 20
	for i := 0; i < flood; i++ {
		hello := encodeHello([]string{
			fmt.Sprintf("10.1.2.3:%d", 4000+i),
			fmt.Sprintf("10.1.2.3:%d", 5000+i),
		})
		if err := writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		writeGen(t, conn, uint64(i+1), fmt.Sprintf("10.1.2.3:%d", 6000+i), set)
	}
	waitFor(t, "flood processed", func() bool {
		return nd.Transport().FramesIn >= 2*flood
	})
	if got := len(nd.Peers()); got > 4 {
		t.Errorf("peer table grew to %d despite MaxPeers=4", got)
	}
	if got := len(nd.Trust().Origins); got > 4 {
		t.Errorf("trust ledger grew to %d origins despite MaxPeers=4", got)
	}
}

// TestBackoffDeterministic pins the retry schedule: the jitter stream
// derives from (Seed, peer address), so two transports with the same
// configuration produce identical backoff sequences — chaos tests can
// reason about timing — while distinct peers get decorrelated jitter.
func TestBackoffDeterministic(t *testing.T) {
	cfg := Config{Seed: 42}
	cfg.defaults()
	seq := func(tr *transport, peer string) []time.Duration {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		ps := tr.peerLocked(peer)
		out := make([]time.Duration, 0, 6)
		for k := 1; k <= 6; k++ {
			out = append(out, tr.backoffLocked(ps, k))
		}
		return out
	}
	a := seq(newTransport(cfg, nil), "10.0.0.1:1")
	b := seq(newTransport(cfg, nil), "10.0.0.1:1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := seq(newTransport(cfg, nil), "10.0.0.2:1")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("two peers drew identical jitter streams")
	}
	// The exponential envelope holds: attempt k waits at least the capped
	// base exponential and at most 1.5x it.
	for k := 1; k <= 6; k++ {
		base := cfg.BackoffBase << (k - 1)
		if base > cfg.BackoffMax || base <= 0 {
			base = cfg.BackoffMax
		}
		if a[k-1] < base || a[k-1] > base+base/2 {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", k, a[k-1], base, base+base/2)
		}
	}
}

// TestQuarantineAndReprobe exercises the dead-peer path end to end: sends
// to an unreachable peer burn their retry budget, the peer is quarantined
// (sends fail fast without dialing), and the first send after the
// quarantine expires re-probes — recovering the peer once it is reachable
// again.
func TestQuarantineAndReprobe(t *testing.T) {
	var dead atomic.Bool
	dead.Store(true)
	nd, err := Start(Config{
		Seed:            1,
		MaxAttempts:     2,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   150 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			if dead.Load() {
				return nil, errors.New("injected: unreachable")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	target, err := Start(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	peer := target.Addr()

	// Two failing sends exhaust the quarantine budget.
	for i := 0; i < 2; i++ {
		if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); err == nil {
			t.Fatal("send to unreachable peer succeeded")
		}
	}
	st := nd.Transport().Peers[peer]
	if !st.Quarantined || st.Failures != 2 || st.Retries != 2 {
		t.Fatalf("after failures: %+v, want quarantined with 2 failures and 2 retries", st)
	}
	// Quarantined: the next send fails fast without burning dials.
	if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("quarantined send error = %v, want ErrPeerQuarantined", err)
	}
	if got := nd.Transport().Peers[peer].Retries; got != 2 {
		t.Errorf("quarantined send dialed anyway (retries %d)", got)
	}
	// Heal the peer; once the quarantine expires the next send re-probes
	// and recovers.
	dead.Store(false)
	time.Sleep(160 * time.Millisecond)
	if err := nd.tr.send(peer, frameHello, encodeHello([]string{nd.Addr()})); err != nil {
		t.Fatalf("re-probe after heal failed: %v", err)
	}
	// At least one frame out: the target's answering hello introduces it
	// to nd, whose own introduction back may already have gone out too.
	st = nd.Transport().Peers[peer]
	if st.Quarantined || st.ConsecutiveFailures != 0 || st.FramesOut < 1 {
		t.Fatalf("after recovery: %+v, want clean un-quarantined state with a frame out", st)
	}
}

// TestHelloIntroductionsOffReaderPath is the regression test for the
// reader-goroutine dial bug: a hello introducing an unreachable peer used
// to stall the connection's frame processing for a full dial timeout.
// With introductions on the background pool, a generation frame sent right
// after such a hello must be processed while the dial is still hanging.
func TestHelloIntroductionsOffReaderPath(t *testing.T) {
	dialStarted := make(chan struct{}, 8)
	release := make(chan struct{})
	nd, err := Start(Config{
		Seed: 1,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dialStarted <- struct{}{}
			<-release // an "unreachable" peer: the dial hangs
			return nil, errors.New("injected: unreachable")
		},
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nd.Close() }()
	defer close(release)
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, nd)
	if err := writeFrame(conn, frameHello, encodeHello([]string{"10.3.3.3:7009"})); err != nil {
		t.Fatal(err)
	}
	// The introduction dial must start (proving it was attempted)...
	select {
	case <-dialStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("introduction was never dialed")
	}
	// ...while the reader keeps consuming: the generation installs even
	// though the dial is still hanging.
	writeGen(t, conn, 1, "10.4.4.4:7010", set)
	waitFor(t, "generation processed while introduction dial hangs", func() bool {
		_, ok := nd.CurrentGeneration()
		return ok
	})
}

// TestPublishReportsPartialFailure covers the swallowed-send-error bugfix:
// a PublishGeneration that cannot reach every peer must say so, per peer,
// in its summary instead of silently dropping the frames.
func TestPublishReportsPartialFailure(t *testing.T) {
	live, err := Start(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// A dead address: bind a port, then close it so connections refuse.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := tmp.Addr().String()
	tmp.Close()

	nd, err := Start(Config{
		Seed:        1,
		Seeds:       []string{live.Addr(), deadAddr},
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	set, err := TrainModelSet(trainingTexts(0), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := nd.PublishGeneration(set)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reached != 1 {
		t.Errorf("Reached = %d, want 1", sum.Reached)
	}
	if sum.AllReached() {
		t.Error("AllReached() = true despite a dead peer")
	}
	if _, ok := sum.Failed[deadAddr]; !ok {
		t.Errorf("Failed = %v, missing dead peer %s", sum.Failed, deadAddr)
	}
	st := nd.Transport().Peers[deadAddr]
	if st.Failures == 0 || st.Retries == 0 {
		t.Errorf("dead peer transport counters %+v recorded no failures/retries", st)
	}
	waitFor(t, "live peer installed the generation", func() bool {
		_, ok := live.CurrentGeneration()
		return ok
	})
}

// trainingTexts returns a small clearly separable labeled corpus; topic
// rotates which tags it carries so distinct callers get distinct sets.
func trainingTexts(topic int) []TaggedText {
	topics := [][2]string{
		{"music", "guitar melody chord song album piano concert symphony"},
		{"travel", "flight hotel passport itinerary beach island resort museum"},
		{"cooking", "recipe oven butter flour sugar grill steak garlic sauce"},
	}
	var out []TaggedText
	for k := 0; k < 2; k++ {
		tag, words := topics[(topic+k)%len(topics)][0], topics[(topic+k)%len(topics)][1]
		fields := strings.Fields(words)
		for i := 0; i < 5; i++ {
			var sb strings.Builder
			for j := 0; j < 6; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(fields[(i+j)%len(fields)])
			}
			out = append(out, TaggedText{Text: sb.String(), Tags: []string{tag}})
		}
	}
	return out
}

// TestQuarantineReprobeTiming pins the re-probe schedule around the
// quarantine window: once a peer is quarantined, no send dials it before
// the deterministic window (QuarantineFor from the quarantining failure)
// expires — even when the peer is healthy again — and every in-window
// broadcast reports it in the Failed map with ErrPeerQuarantined. The
// first send after expiry is the re-probe, and its success fully restores
// the peer: failure streak cleared, quarantine flag dropped, broadcasts
// reaching it again with an empty Failed map.
func TestQuarantineReprobeTiming(t *testing.T) {
	const window = 500 * time.Millisecond
	var dead atomic.Bool
	var dials atomic.Int64
	dead.Store(true)
	nd, err := Start(Config{
		Seed:            3,
		MaxAttempts:     1,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		QuarantineAfter: 2,
		QuarantineFor:   window,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			if dead.Load() {
				return nil, errors.New("injected: unreachable")
			}
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	target, err := Start(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	peer := target.Addr()
	nd.addPeer(peer)

	// Two failing broadcasts exhaust the quarantine budget; each reports
	// the peer in its Failed map.
	for i := 0; i < 2; i++ {
		sum := nd.broadcastHello()
		if _, failed := sum.Failed[peer]; !failed || sum.Reached != 0 {
			t.Fatalf("broadcast %d to dead peer: %+v, want it in Failed", i, sum)
		}
	}
	quarantinedAt := time.Now()
	dialsAtQuarantine := dials.Load()
	if st := nd.Transport().Peers[peer]; !st.Quarantined || st.ConsecutiveFailures != 2 {
		t.Fatalf("after budget exhausted: %+v, want quarantined with streak 2", st)
	}

	// Heal the peer immediately: the window must hold anyway. In-window
	// broadcasts fast-fail with ErrPeerQuarantined and never dial.
	dead.Store(false)
	sum := nd.broadcastHello()
	if err, failed := sum.Failed[peer]; !failed || !errors.Is(err, ErrPeerQuarantined) {
		t.Fatalf("in-window broadcast: %+v, want ErrPeerQuarantined in Failed", sum)
	}
	if got := dials.Load(); got != dialsAtQuarantine {
		t.Fatalf("quarantined peer was dialed during its window (%d dials, had %d)", got, dialsAtQuarantine)
	}

	// Poll until the re-probe goes through. Every broadcast that still
	// fails must be the fast-fail — never a dial — until the window has
	// expired; the one that succeeds must come after it.
	waitFor(t, "re-probe after the window", func() bool {
		sum := nd.broadcastHello()
		if len(sum.Failed) == 0 {
			return true
		}
		if err := sum.Failed[peer]; !errors.Is(err, ErrPeerQuarantined) {
			t.Fatalf("in-window broadcast failed with %v, want ErrPeerQuarantined", err)
		}
		if got := dials.Load(); got != dialsAtQuarantine {
			t.Fatalf("dialed before the quarantine window expired")
		}
		return false
	})
	if elapsed := time.Since(quarantinedAt); elapsed < window {
		t.Errorf("re-probe succeeded %v after quarantine, window is %v", elapsed, window)
	}
	if got := dials.Load(); got != dialsAtQuarantine+1 {
		t.Errorf("re-probe took %d dials, want exactly 1", got-dialsAtQuarantine)
	}
	st := nd.Transport().Peers[peer]
	if st.Quarantined || st.ConsecutiveFailures != 0 || st.FramesOut != 1 {
		t.Fatalf("after re-probe: %+v, want fully restored with 1 frame out", st)
	}
	// Restored means restored: the next broadcast reaches the peer with a
	// clean summary.
	if sum := nd.broadcastHello(); len(sum.Failed) != 0 || sum.Reached != 1 {
		t.Errorf("post-restore broadcast: %+v, want clean reach", sum)
	}
}
