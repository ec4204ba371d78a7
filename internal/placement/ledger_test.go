package placement

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ufab/internal/sim"
	"ufab/internal/topo"
)

func testbedGraph() (*topo.Graph, []topo.NodeID) {
	tb := topo.NewTestbed(topo.TestbedConfig{})
	return tb.Graph, tb.Servers
}

func TestLedgerCommitRelease(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[4]}}
	if err := l.Admit(1, 2e9, pairs); err != nil {
		t.Fatal(err)
	}
	// The host uplink S1→ToR carries the pair on every ECMP path: it must
	// hold exactly the guarantee.
	up := g.Node(servers[0]).Out[0]
	if got := l.CommittedBps(up); got != 2e9 {
		t.Fatalf("uplink committed = %v, want 2e9", got)
	}
	if l.MaxSubscription() <= 0 {
		t.Fatal("MaxSubscription = 0 after commit")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if !l.Release(1) {
		t.Fatal("Release returned false")
	}
	for i := range g.Links {
		if got := l.CommittedBps(topo.LinkID(i)); got != 0 {
			t.Fatalf("link %d residue %v after release", i, got)
		}
	}
	if l.Release(1) {
		t.Fatal("double release succeeded")
	}
}

func TestLedgerRejects(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[1]}}
	if err := l.Admit(1, 0, pairs); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero guarantee: %v, want ErrInvalid", err)
	}
	if err := l.Admit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := l.Admit(1, 1e9, pairs); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate id: %v, want ErrDuplicate", err)
	}
	// Unroutable pair: same node (Paths returns nil).
	if err := l.Admit(2, 1e9, []Pair{{Src: servers[0], Dst: servers[0]}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("self-loop pair: %v, want ErrInvalid", err)
	}
	if l.Has(2) {
		t.Fatal("failed commit left tenant registered")
	}
	// The 10G host uplink now holds 1G: 9G more fits exactly at budget,
	// 1 bps beyond it does not — and the dry run agrees with Admit.
	if err := l.Check(9e9+1, pairs); !errors.Is(err, ErrHeadroom) {
		t.Fatalf("check 1 bps over budget: %v, want ErrHeadroom", err)
	}
	if err := l.Admit(3, 9e9+1, pairs); !errors.Is(err, ErrHeadroom) {
		t.Fatalf("1 bps over budget: %v, want ErrHeadroom", err)
	}
	if l.Has(3) {
		t.Fatal("headroom reject left tenant registered")
	}
	if err := l.Check(9e9, pairs); err != nil {
		t.Fatalf("check exactly at budget: %v", err)
	}
	if err := l.Admit(3, 9e9, pairs); err != nil {
		t.Fatalf("exactly at budget: %v", err)
	}
	up := g.Node(servers[0]).Out[0]
	if got := l.CommittedBps(up); got != g.Link(up).Capacity {
		t.Fatalf("uplink committed %v, want exactly capacity %v", got, g.Link(up).Capacity)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	// A released id is free for reuse.
	if !l.Release(1) || l.Release(1) {
		t.Fatal("release/double release")
	}
	if err := l.Admit(1, 1e9, pairs); err != nil {
		t.Fatalf("id not reusable after release: %v", err)
	}
	// Oversubscription scales the budget: at 1.5 the same link takes 15G.
	over := NewLedger(g, 0, 1.5)
	if err := over.Admit(1, 15e9, pairs); err != nil {
		t.Fatalf("oversub 1.5, 15G: %v", err)
	}
	if err := over.Admit(2, 1, pairs); !errors.Is(err, ErrHeadroom) {
		t.Fatalf("oversub 1.5, 1 bps over: %v, want ErrHeadroom", err)
	}
}

// Multiple pairs of one tenant sharing a link each contribute; multiple
// candidate paths of one pair sharing a link contribute once.
func TestLedgerPairDedup(t *testing.T) {
	g, servers := testbedGraph()
	l := NewLedger(g, 0, 0)
	// Two pairs, both sourced at S1: the S1 uplink carries both chains.
	pairs := []Pair{
		{Src: servers[0], Dst: servers[4]},
		{Src: servers[0], Dst: servers[5]},
	}
	if err := l.Admit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	up := g.Node(servers[0]).Out[0]
	if got := l.CommittedBps(up); got != 2e9 {
		t.Fatalf("shared uplink = %v, want 2e9 (once per pair)", got)
	}
	// A cross-pod core link appears on several ECMP paths of one pair but
	// must carry at most 1e9 per pair.
	for i := range g.Links {
		if got := l.CommittedBps(topo.LinkID(i)); got > 2e9+1e-6 {
			t.Fatalf("link %d committed %v, exceeds 2 pairs × G", i, got)
		}
	}
}

func TestLedgerMaxPathsBound(t *testing.T) {
	g, servers := testbedGraph()
	all := NewLedger(g, 0, 0)
	one := NewLedger(g, 1, 0)
	pairs := []Pair{{Src: servers[0], Dst: servers[4]}}
	if err := all.Admit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := one.Admit(1, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	nAll, nOne := 0, 0
	for i := range g.Links {
		if all.CommittedBps(topo.LinkID(i)) > 0 {
			nAll++
		}
		if one.CommittedBps(topo.LinkID(i)) > 0 {
			nOne++
		}
	}
	if nOne >= nAll {
		t.Fatalf("maxPaths=1 touched %d links, full union %d — bound has no effect", nOne, nAll)
	}
}

// Property (quick-check style, seeded): arbitrary admit/release
// interleavings leave the incrementally maintained ledger equal to
// Verify()'s from-scratch recompute, with zero residue once every tenant
// has departed. This test is in the -race CI row.
func TestLedgerPropertyRandomChurn(t *testing.T) {
	cl := topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
	g, hosts := cl.Graph, cl.Hosts
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		// No budget: this property is about the incremental account,
		// so every admission must commit.
		l := NewLedger(g, 0, math.Inf(1))
		live := []int32{}
		next := int32(1)
		for op := 0; op < 400; op++ {
			if len(live) == 0 || rng.Intn(100) < 55 {
				// Admit a tenant with 1..4 random pairs.
				n := 1 + rng.Intn(4)
				pairs := make([]Pair, 0, n)
				for len(pairs) < n {
					s := hosts[rng.Intn(len(hosts))]
					d := hosts[rng.Intn(len(hosts))]
					if s == d {
						continue
					}
					pairs = append(pairs, Pair{Src: s, Dst: d})
				}
				gbps := float64(1+rng.Intn(40)) * 1e8
				if err := l.Admit(next, gbps, pairs); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				live = append(live, next)
				next++
			} else {
				i := rng.Intn(len(live))
				if !l.Release(live[i]) {
					t.Fatalf("seed %d op %d: release %d failed", seed, op, live[i])
				}
				live = append(live[:i], live[i+1:]...)
			}
			if op%20 == 0 {
				if err := l.Verify(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if err := l.Verify(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		// Drain everyone: the ledger must return to exactly zero.
		for _, id := range append([]int32{}, live...) {
			l.Release(id)
		}
		for i := range g.Links {
			if got := l.CommittedBps(topo.LinkID(i)); got != 0 {
				t.Fatalf("seed %d: link %d residue %v after full drain", seed, i, got)
			}
		}
		if err := l.Verify(); err != nil {
			t.Fatalf("seed %d drained: %v", seed, err)
		}
	}
}

func TestChainPairs(t *testing.T) {
	hosts := []topo.NodeID{3, 7, 9}
	pairs := ChainPairs(hosts)
	want := []Pair{{Src: 3, Dst: 7}, {Src: 7, Dst: 9}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
	if ChainPairs(hosts[:1]) != nil {
		t.Fatal("single host should yield no pairs")
	}
}
