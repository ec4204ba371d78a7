package ctlplane

import (
	"errors"
	"testing"

	"ufab/internal/placement"
	"ufab/internal/topo"
)

// TestShardedLedgerHeadroomAtomic checks that admissions competing for the
// same bottleneck link of the service's ledger can never jointly exceed
// the budget: the ones that do not fit are refused with nothing committed,
// admission exactly at budget passes and 1 bps beyond it does not.
func TestShardedLedgerHeadroomAtomic(t *testing.T) {
	s := testService(t, nil, nil)
	l := s.Ledger()
	g := l.Graph()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	pairs := []placement.Pair{{Src: tb.Servers[0], Dst: tb.Servers[4]}}

	// Oversub 1.0 on the 10G host uplink; each tenant wants 3G on the
	// same host pair, so exactly 3 of the 12 admissions fit.
	admitted := 0
	for id := int32(1); id <= 12; id++ {
		err := l.Admit(id, 3e9, pairs)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, placement.ErrHeadroom):
			if l.Has(id) {
				t.Fatalf("tenant %d: headroom reject left it registered", id)
			}
		default:
			t.Fatalf("tenant %d: %v", id, err)
		}
	}
	if admitted != 3 {
		t.Fatalf("admitted %d tenants of 3G on a 10G uplink, want 3", admitted)
	}
	for lid := range g.Links {
		c := l.CommittedBps(topo.LinkID(lid))
		if cap := g.Links[lid].Capacity; c > cap+1e-6 {
			t.Fatalf("link %d committed %v exceeds capacity %v", lid, c, cap)
		}
	}
	// 1G of headroom is left on the uplink.
	if err := l.Admit(100, 1e9+1, pairs); !errors.Is(err, placement.ErrHeadroom) {
		t.Fatalf("1 bps over budget: %v, want ErrHeadroom", err)
	}
	if err := l.Admit(100, 1e9, pairs); err != nil {
		t.Fatalf("exactly at budget: %v", err)
	}
	up := g.Node(tb.Servers[0]).Out[0]
	if got, cap := l.CommittedBps(up), g.Link(up).Capacity; got != cap {
		t.Fatalf("uplink committed %v, want exactly capacity %v", got, cap)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedLedgerRejectsDuplicates ensures the service's ledger refuses a
// live tenant id, refuses a double release, and frees the id on release.
func TestShardedLedgerRejectsDuplicates(t *testing.T) {
	s := testService(t, nil, nil)
	l := s.Ledger()
	tb := topo.NewTestbed(topo.TestbedConfig{})
	pairs := []placement.Pair{{Src: tb.Servers[0], Dst: tb.Servers[1]}}
	if err := l.Admit(7, 1e9, pairs); err != nil {
		t.Fatal(err)
	}
	if err := l.Admit(7, 1e9, pairs); !errors.Is(err, placement.ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if !l.Release(7) {
		t.Fatal("release failed")
	}
	if l.Release(7) {
		t.Fatal("double release succeeded")
	}
	if err := l.Admit(7, 1e9, pairs); err != nil {
		t.Fatalf("id not reusable after release: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
