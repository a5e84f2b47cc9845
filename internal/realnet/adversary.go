package realnet

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"time"

	"repro/internal/runner"
	"repro/internal/svm"
	"repro/internal/wire"
)

// AttackKind enumerates the scripted Byzantine behaviors an Adversary can
// inject into a mesh.
type AttackKind int

const (
	// AttackNaNBomb publishes a set whose weights and biases contain NaN:
	// structurally invalid, caught by the finite-weight scan.
	AttackNaNBomb AttackKind = iota
	// AttackWeightScale publishes an honest set with every weight and
	// bias scaled by -1000: structurally unremarkable, semantically
	// inverted — caught only by the holdout probe.
	AttackWeightScale
	// AttackLabelFlip publishes an honest set whose per-tag models are
	// rotated across the sorted tag universe (music answers for travel):
	// caught only by the holdout probe.
	AttackLabelFlip
	// AttackStaleReplay re-publishes an honest set at whatever sequence
	// the caller scripts — replaying an old (Seq, Origin) must be
	// deduplicated by the total order, never installed and never charged
	// as a trust event.
	AttackStaleReplay
	// AttackForgedFlood publishes label-flipped sets under a burst of
	// invented origin addresses, testing that each forged origin is
	// individually demoted and the capped tables absorb the flood.
	AttackForgedFlood

	numAttackKinds
)

// String names the attack for derived seeds and logs.
func (k AttackKind) String() string {
	switch k {
	case AttackNaNBomb:
		return "nan-bomb"
	case AttackWeightScale:
		return "weight-scale"
	case AttackLabelFlip:
		return "label-flip"
	case AttackStaleReplay:
		return "stale-replay"
	case AttackForgedFlood:
		return "forged-flood"
	default:
		return fmt.Sprintf("attack(%d)", int(k))
	}
}

// forgedFloodOrigins is how many invented origins one forged-flood strike
// publishes under.
const forgedFloodOrigins = 4

// AdversaryConfig configures a scripted Byzantine peer.
type AdversaryConfig struct {
	// Seed drives every random choice the adversary makes (corruption
	// patterns, forged origins) through runner.DeriveSeed — two adversaries
	// built from the same config perform byte-identical attacks.
	Seed int64
	// Origin is the listen address the adversary claims in its frames. It
	// need not be a real listener — the gossip path never dials back.
	Origin string
	// Targets are the victim addresses strikes are delivered to. Empty
	// means a dry run: payloads are still built and folded into Digest,
	// nothing is sent — which is how tests pin that two runs of the same
	// script built identical attacks.
	Targets []string
	// Docs is the honest corpus the poisoned sets derive from; the
	// adversary trains the same base set an honest peer would and then
	// corrupts it, so its frames are plausible, not random noise.
	Docs []TaggedText
}

const (
	// adversaryC is the training penalty for the base set.
	adversaryC = 1.0
	// One delivery dials over TCP within adversaryDialTimeout and writes
	// within adversaryWriteTimeout.
	adversaryDialTimeout  = 2 * time.Second
	adversaryWriteTimeout = 2 * time.Second
)

// Adversary is a deterministic scripted Byzantine peer: it builds
// poisoned generation frames from an honestly trained base set and
// delivers them to its targets, folding every payload into a running
// digest so a chaos run is reproducible — same seed, same strikes, same
// bytes, same digest, whether or not anything was actually sent.
//
// An Adversary is not safe for concurrent use; drive it from one
// goroutine (it spawns none of its own).
type Adversary struct {
	cfg  AdversaryConfig
	base *ModelSet
	dig  uint64
}

// NewAdversary trains the adversary's honest base set and returns the
// harness. The base training is deterministic in (Docs, Seed).
func NewAdversary(cfg AdversaryConfig) (*Adversary, error) {
	if cfg.Origin == "" {
		return nil, errors.New("realnet: adversary needs a claimed origin address")
	}
	base, err := TrainModelSet(cfg.Docs, adversaryC, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("realnet: adversary base set: %w", err)
	}
	return &Adversary{cfg: cfg, base: base, dig: wire.Checksum(nil)}, nil
}

// Digest is the running digest over every payload this adversary has
// built, in order. Two adversaries with the same config and the same
// scripted calls produce the same digest — delivery outcomes never enter
// it, so a dry run (no Targets) pins what a live run injected.
func (a *Adversary) Digest() uint64 { return a.dig }

// Strike builds and delivers one attack of the given kind carrying the
// given sequence number. Delivery is best-effort per target; the first
// error is returned after every target was tried. The payloads are folded
// into Digest whether or not delivery happens or succeeds.
func (a *Adversary) Strike(kind AttackKind, seq uint64) error {
	payloads, err := a.buildPayloads(kind, seq)
	if err != nil {
		return err
	}
	const prime64 = 1099511628211
	for _, p := range payloads {
		a.dig ^= wire.Checksum(p)
		a.dig *= prime64
	}
	var firstErr error
	for _, target := range a.cfg.Targets {
		for _, p := range payloads {
			if err := a.deliver(target, p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// buildPayloads builds the encoded generation frames for one strike. All
// corruption iterates the sorted tag universe and draws from a rng
// derived per (seed, kind, seq), so the bytes are a pure function of the
// adversary config and the scripted call.
func (a *Adversary) buildPayloads(kind AttackKind, seq uint64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(runner.DeriveSeed(a.cfg.Seed, "adversary", kind.String(), fmt.Sprint(seq))))
	tags := a.base.Tags()
	switch kind {
	case AttackNaNBomb:
		set := clone(a.base)
		for _, tag := range tags {
			m := set.Models[tag]
			if len(m.Value) > 0 {
				m.Value[rng.Intn(len(m.Value))] = math.NaN()
			}
			m.Bias = math.NaN()
		}
		return a.encode(set, a.cfg.Origin, seq)
	case AttackWeightScale:
		set := clone(a.base)
		for _, tag := range tags {
			m := set.Models[tag]
			for k := range m.Value {
				m.Value[k] *= -1000
			}
			m.Bias *= -1000
		}
		return a.encode(set, a.cfg.Origin, seq)
	case AttackLabelFlip:
		return a.encode(labelFlip(a.base, tags), a.cfg.Origin, seq)
	case AttackStaleReplay:
		return a.encode(a.base, a.cfg.Origin, seq)
	case AttackForgedFlood:
		var out [][]byte
		flipped := labelFlip(a.base, tags)
		for i := 0; i < forgedFloodOrigins; i++ {
			// TEST-NET-3 addresses: syntactically valid, never routable.
			origin := fmt.Sprintf("203.0.113.%d:%d", rng.Intn(254)+1, 4000+rng.Intn(1000))
			p, err := a.encode(flipped, origin, seq)
			if err != nil {
				return nil, err
			}
			out = append(out, p...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("realnet: unknown attack kind %d", int(kind))
	}
}

// labelFlip rotates the per-tag models one step through the sorted tag
// universe: every tag answers with its neighbor's model and calibration,
// so each model is individually well-formed but systematically wrong. The
// flipped set shares base's models, which nothing mutates.
func labelFlip(base *ModelSet, tags []string) *ModelSet {
	set := &ModelSet{
		Models:   make(map[string]*svm.SparseModel, len(tags)),
		Platt:    make(map[string]svm.PlattParams, len(tags)),
		Accuracy: maps.Clone(base.Accuracy),
	}
	for i, tag := range tags {
		next := tags[(i+1)%len(tags)]
		set.Models[tag] = base.Models[next]
		set.Platt[tag] = base.Platt[next]
	}
	return set
}

func (a *Adversary) encode(set *ModelSet, origin string, seq uint64) ([][]byte, error) {
	p, err := encodeGeneration(Generation{Seq: seq, Origin: origin, Set: set})
	if err != nil {
		return nil, err
	}
	return [][]byte{p}, nil
}

// deliver dials one target and writes one generation frame, the same
// frame shape an honest node's gossip uses.
func (a *Adversary) deliver(to string, payload []byte) error {
	conn, err := net.DialTimeout("tcp", to, adversaryDialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(adversaryWriteTimeout))
	return writeFrame(conn, frameGen, payload)
}
