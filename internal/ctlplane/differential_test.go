package ctlplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ufab/internal/placement"
	"ufab/internal/sim"
	"ufab/internal/topo"
)

// sameReason folds the one place the two front ends' reject vocabularies
// ever differed (a held id: "invalid" from the simulated controller,
// "duplicate" from the service) so the differential also runs against
// trees where they did. TestRejectVocabulary pins the exact strings.
func sameReason(r string) string {
	if r == "duplicate" {
		return "invalid"
	}
	return r
}

// TestControllerServiceDifferential drives identical random admit/release
// sequences through the simulated FIFO controller and the daemon's
// service, both ledger-only over the same fabric, and requires the same
// decision, reason and hosts for every request and the same committed
// bps on every link after every step. The sequences mix in held ids,
// malformed requests, out-of-range weight classes, more VMs than hosts
// and enough load for headroom and slot rejections.
func TestControllerServiceDifferential(t *testing.T) {
	policies := []placement.Policy{placement.FirstFit{}, placement.Spread{}, placement.SubscriptionAware{}}
	for _, pol := range policies {
		for _, oversub := range []float64{1, 1.5} {
			for seed := int64(1); seed <= 20; seed++ {
				name := fmt.Sprintf("%s/oversub=%g/seed=%d", pol.Name(), oversub, seed)
				diffRun(t, name, pol, oversub, seed)
			}
		}
	}
}

func diffRun(t *testing.T, name string, pol placement.Policy, oversub float64, seed int64) {
	t.Helper()
	cl := topo.NewClos(topo.ClosConfig{
		Pods: 4, ToRsPerPod: 2, AggsPerPod: 2, Cores: 4, HostsPerToR: 4,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond,
	})
	g := cl.Graph
	eng := sim.New()
	ctl := placement.NewController(eng, g, nil, placement.Config{
		Oversubscription: oversub, SlotsPerHost: 4, Policy: pol,
	})
	svc := NewService(g, nil, nil, Config{
		Oversubscription: oversub, SlotsPerHost: 4, Policy: pol,
	})

	rng := rand.New(rand.NewSource(seed))
	guarantees := []float64{5e8, 1e9, 2e9, 3e9}
	var live []int32
	next := int32(1)
	for op := 0; op < 300; op++ {
		if len(live) > 0 && (len(live) >= 64 || rng.Intn(100) < 40) {
			i := rng.Intn(len(live))
			id := live[i]
			okC, okS := ctl.Release(id), svc.Release(id, 0)
			if okC != okS || !okC {
				t.Fatalf("%s op %d: release %d: controller %v service %v", name, op, id, okC, okS)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			req := placement.Request{
				ID:           next,
				GuaranteeBps: guarantees[rng.Intn(len(guarantees))],
				VMs:          1 + rng.Intn(5),
				WeightClass:  rng.Intn(8),
			}
			switch rng.Intn(20) {
			case 0:
				if len(live) > 0 {
					req.ID = live[rng.Intn(len(live))]
				}
			case 1:
				req.GuaranteeBps = 0
			case 2:
				req.VMs = 0
			case 3:
				req.VMs = len(cl.Hosts) + 1
			case 4:
				req.WeightClass = 8
			}
			if req.ID == next {
				next++
			}
			var dc placement.Decision
			ctl.Submit(req, func(d placement.Decision) { dc = d })
			eng.Run()
			ds := svc.Admit(req, int64(eng.Now()))
			if dc.Accepted != ds.Accepted || sameReason(dc.Reason) != sameReason(ds.Reason) ||
				!reflect.DeepEqual(dc.Hosts, ds.Hosts) {
				t.Fatalf("%s op %d: %+v\ncontroller: %v %q %v\nservice:    %v %q %v", name, op, req,
					dc.Accepted, dc.Reason, dc.Hosts, ds.Accepted, ds.Reason, ds.Hosts)
			}
			if ds.Accepted {
				live = append(live, req.ID)
			}
		}
		for lid := range g.Links {
			c := ctl.Ledger().CommittedBps(topo.LinkID(lid))
			s := svc.Ledger().CommittedBps(topo.LinkID(lid))
			if c != s {
				t.Fatalf("%s op %d: link %d committed controller %v service %v", name, op, lid, c, s)
			}
		}
	}
}

// TestRejectVocabulary pins the reject reasons both front ends share: a
// held id is "duplicate", an out-of-range weight class is "invalid" with
// nothing committed or materialized, and an unroutable chain pair is
// "placement".
func TestRejectVocabulary(t *testing.T) {
	// Two hosts under switches with no path between them: the only
	// placement of a 2-VM tenant is an unroutable chain.
	split := &topo.Graph{}
	for i := 0; i < 2; i++ {
		h := split.AddNode(topo.Host, topo.TierHost, fmt.Sprintf("h%d", i))
		sw := split.AddNode(topo.Switch, topo.TierToR, fmt.Sprintf("tor%d", i))
		split.AddDuplexLink(h, sw, topo.Gbps(10), sim.Microsecond)
	}
	tb := topo.NewTestbed(topo.TestbedConfig{})
	cases := []struct {
		name string
		g    *topo.Graph
		reqs []placement.Request // the last one is the probe
		want string
	}{
		{"held id", tb.Graph, []placement.Request{
			{ID: 1, GuaranteeBps: 1e9, VMs: 2, WeightClass: 3},
			{ID: 1, GuaranteeBps: 1e9, VMs: 2, WeightClass: 3},
		}, placement.ReasonDuplicate},
		{"weight class", tb.Graph, []placement.Request{
			{ID: 1, GuaranteeBps: 1e9, VMs: 2, WeightClass: 8},
		}, placement.ReasonInvalid},
		{"negative weight class", tb.Graph, []placement.Request{
			{ID: 1, GuaranteeBps: 1e9, VMs: 2, WeightClass: -1},
		}, placement.ReasonInvalid},
		{"unroutable pair", split, []placement.Request{
			{ID: 1, GuaranteeBps: 1e9, VMs: 2, WeightClass: 3},
		}, placement.ReasonPlacement},
		{"more VMs than hosts", tb.Graph, []placement.Request{
			{ID: 1, GuaranteeBps: 1e9, VMs: 9, WeightClass: 3},
		}, placement.ReasonPlacement},
	}
	for _, tc := range cases {
		eng := sim.New()
		cmat, smat := newFakeMat(), newFakeMat()
		ctl := placement.NewController(eng, tc.g, cmat, placement.Config{})
		svc := NewService(tc.g, nil, smat, Config{Policy: placement.FirstFit{}})
		var dc placement.Decision
		var ds Decision
		for _, req := range tc.reqs {
			ctl.Submit(req, func(d placement.Decision) { dc = d })
			eng.Run()
			ds = svc.Admit(req, 0)
		}
		probe := tc.reqs[len(tc.reqs)-1]
		if ev := svc.Evaluate(probe); ev.Reason != tc.want {
			t.Errorf("%s: service evaluate reason %q, want %q", tc.name, ev.Reason, tc.want)
		}
		if dc.Accepted || dc.Reason != tc.want || ds.Accepted || ds.Reason != tc.want {
			t.Errorf("%s: controller %q, service %q, want %q", tc.name, dc.Reason, ds.Reason, tc.want)
		}
		held := len(tc.reqs) - 1
		if len(cmat.live) != held || len(smat.live) != held ||
			ctl.Ledger().Tenants() != held || svc.Ledger().Tenants() != held {
			t.Errorf("%s: reject left state behind: materialized %d/%d, committed %d/%d",
				tc.name, len(cmat.live), len(smat.live), ctl.Ledger().Tenants(), svc.Ledger().Tenants())
		}
	}
}
