package p2pdmt

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestRunPinnedOutcomes pins the complete digest of a full experiment —
// corpus, training traffic, churn, queries — for a DHT-routed protocol
// (CEMPaR) and a broadcast protocol (PACE). The hashes were recorded on
// the earlier sharded simulator, so they hold the single-heap engine to the
// event order and random streams that engine produced.
func TestRunPinnedOutcomes(t *testing.T) {
	for _, c := range []struct {
		proto ProtocolKind
		want  string
	}{
		{ProtoCEMPaR, "0168f239d66d17efd1b576db6686d7bd2937cdd74ffc5e5c3edf5fa2a49450a6"},
		{ProtoPACE, "0e6260aa99dacdefed7474c001f1835579edf9328687361cb031ef9dbf92c81d"},
	} {
		t.Run(string(c.proto), func(t *testing.T) {
			cfg := fastConfig(c.proto)
			cfg.Churn = simnet.ExponentialChurn{MeanUptime: 2 * time.Minute, MeanDowntime: 30 * time.Second}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := digest(res)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(d))); got != c.want {
				t.Errorf("digest sha256 %s, pinned %s; digest:\n%s", got, c.want, d)
			}
		})
	}
}
