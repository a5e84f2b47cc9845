package realnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// byzantineVictim starts a node with the full admission pipeline armed: a
// holdout probe over the topic-0 corpus and a short trust quarantine so
// re-probe windows fit in a -short test run. Outbound dials are disabled —
// these tests only drive inbound frames at it.
func byzantineVictim(t *testing.T, quarantine time.Duration) *Node {
	t.Helper()
	nd, err := Start(Config{
		Seed:               1,
		Dial:               failDial,
		MaxAttempts:        1,
		ProbeDocs:          trainingTexts(0),
		TrustQuarantineFor: quarantine,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// strikeFrom builds a single-purpose adversary claiming the given origin
// and aims it at the victim. Its poisoned sets derive from the same
// corpus the victim probes with, so only the corruption — not domain
// mismatch — decides the outcome.
func strikeFrom(t *testing.T, victim *Node, origin string, seed int64) *Adversary {
	t.Helper()
	adv, err := NewAdversary(AdversaryConfig{
		Seed:    seed,
		Origin:  origin,
		Targets: []string{victim.Addr()},
		Docs:    trainingTexts(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestValidationRejectsPoisonedGenerations drives one strike of each
// poisoning kind at a probing node: the NaN bomb dies on the structural
// finite-weight scan, the scaled and label-flipped sets die on the
// holdout probe, every rejection is charged to its origin in both the
// transport counters and the trust ledger, and nothing installs. An
// honest generation from a clean origin still installs afterwards — the
// pipeline rejects poison, not traffic.
func TestValidationRejectsPoisonedGenerations(t *testing.T) {
	victim := byzantineVictim(t, time.Minute)

	kinds := []AttackKind{AttackNaNBomb, AttackWeightScale, AttackLabelFlip}
	origins := make([]string, len(kinds))
	for i, kind := range kinds {
		origins[i] = fmt.Sprintf("10.1.1.%d:7000", i+1)
		adv := strikeFrom(t, victim, origins[i], int64(100+i))
		if err := adv.Strike(kind, uint64(100+i)); err != nil {
			t.Fatalf("%v strike undelivered: %v", kind, err)
		}
	}
	waitFor(t, "all poisoned generations rejected", func() bool {
		return victim.Transport().Rejects >= int64(len(kinds))
	})
	if _, ok := victim.CurrentGeneration(); ok {
		t.Fatal("a poisoned generation installed")
	}
	trust := victim.Trust()
	tr := victim.Transport()
	for i, origin := range origins {
		o, seen := trust.Origins[origin]
		if !seen {
			t.Fatalf("%v origin %s missing from the trust ledger", kinds[i], origin)
		}
		if o.Rejected < 1 || o.Accepted != 0 {
			t.Errorf("%v origin: rejected %d accepted %d, want >=1 and 0", kinds[i], o.Rejected, o.Accepted)
		}
		if o.Score >= 1 {
			t.Errorf("%v origin: score %v not demoted", kinds[i], o.Score)
		}
		if !o.Quarantined {
			t.Errorf("%v origin not quarantined", kinds[i])
		}
		if tr.Peers[origin].Rejects < 1 {
			t.Errorf("%v origin: transport rejects %d, want >=1", kinds[i], tr.Peers[origin].Rejects)
		}
	}
	// Poisoned origins must not have entered the membership tables either.
	for _, p := range victim.Peers() {
		for i, origin := range origins {
			if p == origin {
				t.Errorf("%v origin entered the peer table", kinds[i])
			}
		}
	}

	// A clean origin's honest set (AttackStaleReplay carries the
	// uncorrupted base) passes the same pipeline and installs.
	honest := strikeFrom(t, victim, "10.2.2.2:7000", 7)
	if err := honest.Strike(AttackStaleReplay, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "honest generation installed", func() bool {
		cur, ok := victim.CurrentGeneration()
		return ok && cur.Seq == 1 && cur.Origin == "10.2.2.2:7000"
	})
	if o := victim.Trust().Origins["10.2.2.2:7000"]; o.Accepted != 1 || o.Score != 1 {
		t.Errorf("honest origin ledger = %+v, want accepted 1 at full trust", o)
	}
}

// TestTrustQuarantineReprobe pins the quarantine lifecycle: after a
// rejection the origin's honest publications are refused outright — no
// validation, no install — until the deterministic window (base plus
// derived jitter) expires; the first accepted publication after it counts
// as a successful re-probe, lifts the quarantine and recovers trust.
func TestTrustQuarantineReprobe(t *testing.T) {
	victim := byzantineVictim(t, 100*time.Millisecond)
	const origin = "10.3.3.3:7000"
	adv := strikeFrom(t, victim, origin, 9)

	if err := adv.Strike(AttackNaNBomb, 10); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "poison rejected", func() bool {
		return victim.Trust().Origins[origin].Rejected >= 1
	})

	// Honest content inside the window is refused before validation.
	if err := adv.Strike(AttackStaleReplay, 11); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "in-window publication refused", func() bool {
		return victim.Transport().Peers[origin].Rejects >= 2
	})
	if _, ok := victim.CurrentGeneration(); ok {
		t.Fatal("a quarantined origin's generation installed")
	}
	if o := victim.Trust().Origins[origin]; o.Accepted != 0 || !o.Quarantined {
		t.Fatalf("in-window ledger = %+v, want still quarantined with 0 accepts", o)
	}

	// After the window (jitter is at most 50% of the base), the next
	// honest publication is the re-probe: it validates, installs and
	// restores the origin.
	waitFor(t, "quarantine window expired", func() bool {
		return !victim.Trust().Origins[origin].Quarantined
	})
	if err := adv.Strike(AttackStaleReplay, 12); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-probe accepted", func() bool {
		cur, ok := victim.CurrentGeneration()
		return ok && cur.Seq == 12 && cur.Origin == origin
	})
	o := victim.Trust().Origins[origin]
	if o.Reprobes != 1 || o.Accepted != 1 || o.Quarantined {
		t.Errorf("post-re-probe ledger = %+v, want 1 reprobe, 1 accept, no quarantine", o)
	}
	if o.Score <= 0.5 {
		t.Errorf("score %v did not recover on re-probe", o.Score)
	}
}

// TestStaleReplayNeverReinstalls is the replay regression pin: an older
// (Seq, Origin) must never reinstall over a newer generation — on a
// converged node, and on a node that restarted and caught up through the
// hello path — and a stale echo is normal gossip traffic, never a trust
// event.
func TestStaleReplayNeverReinstalls(t *testing.T) {
	a, err := Start(fastMesh(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(fastMesh(2, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "membership", func() bool { return len(a.Peers()) >= 1 })

	set, err := TrainModelSet(trainingTexts(0), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.PublishGeneration(set); err != nil {
		t.Fatal(err)
	}
	set2, err := TrainModelSet(trainingTexts(1), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	gen2, _, err := a.PublishGeneration(set2)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b at generation 2", func() bool {
		cur, ok := b.CurrentGeneration()
		return ok && cur.Seq == gen2.Seq
	})

	// Replay an older sequence at the converged node: dedup drops it.
	replayer, err := NewAdversary(AdversaryConfig{
		Seed: 9, Origin: "10.4.4.4:7000", Targets: []string{b.Addr()},
		Docs: trainingTexts(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	framesBefore := b.Transport().FramesIn
	if err := replayer.Strike(AttackStaleReplay, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replay frame processed", func() bool {
		return b.Transport().FramesIn > framesBefore
	})
	cur, _ := b.CurrentGeneration()
	if cur.Seq != gen2.Seq || cur.Origin != gen2.Origin {
		t.Fatalf("replay reinstalled: now at (%d, %s)", cur.Seq, cur.Origin)
	}
	if got := b.Transport().Peers["10.4.4.4:7000"].Rejects; got != 0 {
		t.Errorf("stale echo charged %d rejects; dedup is not a trust event", got)
	}
	b.Close()

	// Restart path: a fresh node catches up through the hello exchange,
	// then the same replay must be just as dead.
	c, err := Start(fastMesh(3, a.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "restarted node caught up", func() bool {
		cur, ok := c.CurrentGeneration()
		return ok && cur.Seq == gen2.Seq && cur.Origin == gen2.Origin
	})
	replayC, err := NewAdversary(AdversaryConfig{
		Seed: 9, Origin: "10.4.4.4:7000", Targets: []string{c.Addr()},
		Docs: trainingTexts(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	framesBefore = c.Transport().FramesIn
	if err := replayC.Strike(AttackStaleReplay, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replay frame processed after restart", func() bool {
		return c.Transport().FramesIn > framesBefore
	})
	cur, _ = c.CurrentGeneration()
	if cur.Seq != gen2.Seq || cur.Origin != gen2.Origin {
		t.Fatalf("replay reinstalled after restart: now at (%d, %s)", cur.Seq, cur.Origin)
	}
}

// TestForgedOriginFloodContained drives a forged-origin flood at a
// probing node: every invented origin's poisoned set is individually
// rejected and demoted, and the capped tables absorb the flood without
// installing anything.
func TestForgedOriginFloodContained(t *testing.T) {
	victim := byzantineVictim(t, time.Minute)
	adv := strikeFrom(t, victim, "10.5.5.5:7000", 11)
	if err := adv.Strike(AttackForgedFlood, 50); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flood rejected", func() bool {
		return victim.Transport().Rejects >= forgedFloodOrigins
	})
	if _, ok := victim.CurrentGeneration(); ok {
		t.Fatal("a forged generation installed")
	}
	demoted := 0
	for _, o := range victim.Trust().Origins {
		if o.Rejected > 0 && o.Quarantined {
			demoted++
		}
	}
	if demoted < forgedFloodOrigins {
		t.Errorf("%d forged origins demoted, want %d", demoted, forgedFloodOrigins)
	}
}

// TestAdversaryDeterministic pins the harness's reproducibility contract:
// two adversaries with the same seed build byte-identical attack
// schedules and payloads (identical running digests), live or dry; a
// different seed diverges.
func TestAdversaryDeterministic(t *testing.T) {
	build := func(seed int64) (*Adversary, []AttackKind) {
		adv, err := NewAdversary(AdversaryConfig{
			Seed: seed, Origin: "10.6.6.6:7000", Docs: trainingTexts(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		kinds, err := adv.RunSchedule(8, 5)
		if err != nil {
			t.Fatal(err)
		}
		return adv, kinds
	}
	a1, k1 := build(42)
	a2, k2 := build(42)
	if !reflect.DeepEqual(k1, k2) {
		t.Fatalf("same seed, different schedules: %v vs %v", k1, k2)
	}
	if a1.Digest() != a2.Digest() {
		t.Fatalf("same seed, different digests: %#x vs %#x", a1.Digest(), a2.Digest())
	}
	a3, _ := build(43)
	if a3.Digest() == a1.Digest() {
		t.Error("different seeds produced identical attack digests")
	}
}
