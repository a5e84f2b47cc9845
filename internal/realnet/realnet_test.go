package realnet

import (
	"testing"
	"time"
)

// startCluster launches n nodes on loopback, joined through node 0.
func startCluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	first, err := Start(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes[0] = first
	for i := 1; i < n; i++ {
		nd, err := Start(Config{Seeds: []string{first.Addr()}, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	})
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestMembershipGossip(t *testing.T) {
	nodes := startCluster(t, 4)
	// Every node should eventually know the other three, even though only
	// node 0 was given as a seed.
	for i, nd := range nodes {
		nd := nd
		waitFor(t, "membership convergence", func() bool {
			return len(nd.Peers()) >= 3
		})
		_ = i
	}
}

func TestHelloRoundTrip(t *testing.T) {
	addrs := []string{"1.2.3.4:80", "[::1]:9999", ""}
	got, err := decodeHello(encodeHello(addrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != addrs[0] || got[1] != addrs[1] {
		t.Errorf("hello round trip = %v", got)
	}
	if _, err := decodeHello([]byte{0xFF}); err == nil {
		t.Error("truncated hello accepted")
	}
}
