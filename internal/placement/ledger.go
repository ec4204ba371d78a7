// Package placement is μFAB's tenant lifecycle control plane: it decides
// whether a tenant fits (admission control against a per-link subscription
// ledger), where its VMs go (pluggable placement policies), and drives
// large-scale open-loop churn over a simulated fleet. The paper assumes an
// admitted tenant set whose Σ-guarantees respect every link's capacity
// (the precondition of the Eqn-1 hose guarantee and the invariant the
// μFAB-C Φ_l registers meter at run time); this package is the layer that
// establishes it before the data plane ever sees a packet.
//
// The package sits beside vfabric, not above it: admitted tenants
// materialize through the chaos.TenantSpec churn surface (any
// Materializer — vfabric.Fabric implements it), and the read side of the
// ledger plugs into vfabric's auditor as the ledger_bound invariant.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"ufab/internal/topo"
)

// Pair is one VM-pair of a tenant placement: traffic from the VM on Src
// to the VM on Dst.
type Pair struct {
	Src, Dst topo.NodeID
}

// Sentinel errors Ledger.Admit and Ledger.Check wrap, so the admission
// pipeline maps a ledger refusal to a reject reason without string
// matching.
var (
	// ErrHeadroom: a link would exceed its oversubscribed admission budget.
	ErrHeadroom = errors.New("headroom")
	// ErrDuplicate: the tenant id already holds a commitment.
	ErrDuplicate = errors.New("duplicate tenant")
	// ErrInvalid: non-positive guarantee or an unroutable pair.
	ErrInvalid = errors.New("invalid request")
)

// Ledger is the per-link Σ-guarantee subscription account. For every
// admitted tenant it commits the tenant's hose guarantee G on every link
// of each VM-pair's ECMP path union — a conservative upper bound on the
// Φ_l·BU the pair can ever register, since μFAB-E samples its candidate
// paths from exactly that equal-cost set and registers at most G per pair
// per link. It also owns the admission budget: Admit commits only while
// every touched link stays within oversubscription·capacity. Admit and
// Release are incremental: O(affected links), never a full recompute.
// Verify recomputes from scratch for testing.
//
// A Ledger is single-goroutine, like the simulation engine it serves.
// Both front ends keep to that: the simulated Controller runs on the
// engine goroutine, and the daemon's Service serializes every call on
// its engine goroutine, so the account needs no locking.
type Ledger struct {
	g *topo.Graph
	// maxPaths bounds the per-pair ECMP enumeration (0 = the full
	// equal-cost set, a superset of what μFAB-E samples).
	maxPaths int
	// oversub scales every link's admission budget.
	oversub float64

	committed []float64 // bps, indexed by LinkID
	tenants   map[int32]*ledgerEntry
	order     []int32 // admitted ids in commit order (deterministic Verify)

	// Scratch for delta computation, reused across calls.
	stamp   []int64
	seq     int64
	scratch []float64
	touched []topo.LinkID
}

// ledgerEntry stores a tenant's inputs (for Verify's recompute) and the
// exact per-link amounts committed (so Release subtracts precisely what
// Admit added, leaving zero residue).
type ledgerEntry struct {
	guaranteeBps float64
	pairs        []Pair
	links        []topo.LinkID
	amounts      []float64
}

// NewLedger creates a ledger over the graph. maxPaths bounds the ECMP
// enumeration per pair (0 = all equal-cost paths); oversub scales every
// link's admission budget (0 = 1.0, the paper's predictability
// precondition).
func NewLedger(g *topo.Graph, maxPaths int, oversub float64) *Ledger {
	if oversub == 0 {
		oversub = 1.0
	}
	n := len(g.Links)
	return &Ledger{
		g:         g,
		maxPaths:  maxPaths,
		oversub:   oversub,
		committed: make([]float64, n),
		tenants:   make(map[int32]*ledgerEntry),
		stamp:     make([]int64, n),
		scratch:   make([]float64, n),
	}
}

// delta computes the per-link commitment of (guaranteeBps, pairs) into
// the reusable scratch buffers and returns the touched links sorted by
// id. Each pair contributes G once per link of its ECMP path union
// (multiple candidate paths sharing a link count once, matching the
// μFAB-C register's per-pair dedup); separate pairs sharing a link each
// contribute.
func (l *Ledger) delta(guaranteeBps float64, pairs []Pair) ([]topo.LinkID, []float64, error) {
	l.touched = l.touched[:0]
	for _, pr := range pairs {
		paths := l.g.Paths(pr.Src, pr.Dst, l.maxPaths)
		if len(paths) == 0 {
			for _, lid := range l.touched {
				l.scratch[lid] = 0
			}
			return nil, nil, fmt.Errorf("placement: no path %d→%d: %w", pr.Src, pr.Dst, ErrInvalid)
		}
		l.seq++
		for _, p := range paths {
			for _, lid := range p {
				if l.stamp[lid] != l.seq {
					// First time this pair sees the link.
					l.stamp[lid] = l.seq
					if l.scratch[lid] == 0 {
						l.touched = append(l.touched, lid)
					}
					l.scratch[lid] += guaranteeBps
				}
			}
		}
	}
	sort.Slice(l.touched, func(i, j int) bool { return l.touched[i] < l.touched[j] })
	amounts := make([]float64, len(l.touched))
	links := make([]topo.LinkID, len(l.touched))
	for i, lid := range l.touched {
		links[i] = lid
		amounts[i] = l.scratch[lid]
		l.scratch[lid] = 0 // reset for the next call
	}
	return links, amounts, nil
}

// Evaluate returns, without committing anything, the links a placement
// would touch and the bps it would add to each. The returned slices are
// freshly allocated; an error means a pair has no path.
func (l *Ledger) Evaluate(guaranteeBps float64, pairs []Pair) ([]topo.LinkID, []float64, error) {
	return l.delta(guaranteeBps, pairs)
}

// Check is Admit's dry run: it reports whether the placement would be
// admitted right now, without committing anything. The error wraps
// ErrInvalid or ErrHeadroom.
func (l *Ledger) Check(guaranteeBps float64, pairs []Pair) error {
	_, _, err := l.fit(guaranteeBps, pairs)
	return err
}

// Admit commits a tenant in one pass: the delta is computed once, every
// touched link is checked against oversubscription·capacity, and only
// then is the guarantee added. On any error — wrapping ErrDuplicate,
// ErrInvalid or ErrHeadroom — the ledger is untouched.
func (l *Ledger) Admit(id int32, guaranteeBps float64, pairs []Pair) error {
	if l.tenants[id] != nil {
		return fmt.Errorf("placement: tenant %d: %w", id, ErrDuplicate)
	}
	links, amounts, err := l.fit(guaranteeBps, pairs)
	if err != nil {
		return fmt.Errorf("placement: tenant %d: %w", id, err)
	}
	for i, lid := range links {
		l.committed[lid] += amounts[i]
	}
	e := &ledgerEntry{guaranteeBps: guaranteeBps, links: links, amounts: amounts}
	e.pairs = append(e.pairs, pairs...)
	l.tenants[id] = e
	l.order = append(l.order, id)
	return nil
}

// fit computes the delta of a prospective tenant and checks it against
// every touched link's budget.
func (l *Ledger) fit(guaranteeBps float64, pairs []Pair) ([]topo.LinkID, []float64, error) {
	if guaranteeBps <= 0 {
		return nil, nil, fmt.Errorf("non-positive guarantee %v: %w", guaranteeBps, ErrInvalid)
	}
	links, amounts, err := l.delta(guaranteeBps, pairs)
	if err != nil {
		return nil, nil, err
	}
	for i, lid := range links {
		if l.committed[lid]+amounts[i] > l.oversub*l.g.Links[lid].Capacity+1e-9 {
			return nil, nil, fmt.Errorf("link %d over budget: %w", lid, ErrHeadroom)
		}
	}
	return links, amounts, nil
}

// Release withdraws a tenant's commitment, subtracting exactly the
// amounts Admit added. Returns false for an unknown id.
func (l *Ledger) Release(id int32) bool {
	e := l.tenants[id]
	if e == nil {
		return false
	}
	for i, lid := range e.links {
		l.committed[lid] -= e.amounts[i]
		// Clamp float residue so long churn runs can't drift below zero.
		if l.committed[lid] < 0 && l.committed[lid] > -1e-6 {
			l.committed[lid] = 0
		}
	}
	delete(l.tenants, id)
	for i, tid := range l.order {
		if tid == id {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	return true
}

// Graph returns the topology the ledger accounts over.
func (l *Ledger) Graph() *topo.Graph { return l.g }

// Has reports whether the tenant currently holds a commitment.
func (l *Ledger) Has(id int32) bool { return l.tenants[id] != nil }

// Tenants returns the number of tenants currently committed.
func (l *Ledger) Tenants() int { return len(l.tenants) }

// CommittedBps returns the Σ-guarantee currently committed on the link,
// in bits per second. It implements vfabric.SubscriptionLedger.
func (l *Ledger) CommittedBps(lid topo.LinkID) float64 { return l.committed[lid] }

// Subscription returns the link's committed subscription as a fraction of
// its physical capacity.
func (l *Ledger) Subscription(lid topo.LinkID) float64 {
	return l.committed[lid] / l.g.Link(lid).Capacity
}

// MaxSubscription returns the highest committed/capacity ratio across all
// links, the fleet's bottleneck subscription.
func (l *Ledger) MaxSubscription() float64 {
	max := 0.0
	for i := range l.committed {
		if s := l.committed[i] / l.g.Links[i].Capacity; s > max {
			max = s
		}
	}
	return max
}

// MeanSubscription returns the mean committed/capacity ratio across all
// links — the fleet's committed utilization.
func (l *Ledger) MeanSubscription() float64 {
	if len(l.committed) == 0 {
		return 0
	}
	sum := 0.0
	for i := range l.committed {
		sum += l.committed[i] / l.g.Links[i].Capacity
	}
	return sum / float64(len(l.committed))
}

// Verify recomputes every link's commitment from scratch from the stored
// tenant inputs and compares it with the incrementally maintained state.
// It returns the first discrepancy found (nil when consistent). Testing
// only: it is O(tenants × pairs × paths).
func (l *Ledger) Verify() error {
	full := make([]float64, len(l.committed))
	for _, id := range l.order {
		e := l.tenants[id]
		links, amounts, err := l.delta(e.guaranteeBps, e.pairs)
		if err != nil {
			return fmt.Errorf("placement: verify: tenant %d: %v", id, err)
		}
		for i, lid := range links {
			full[lid] += amounts[i]
		}
	}
	for i := range full {
		diff := l.committed[i] - full[i]
		if diff < 0 {
			diff = -diff
		}
		tol := 1e-6 * (1 + full[i])
		if diff > tol {
			return fmt.Errorf("placement: verify: link %d incremental %v != recomputed %v",
				i, l.committed[i], full[i])
		}
	}
	return nil
}

// ChainPairs materializes the hose model over an ordered host list: VM i
// sends to VM i+1, giving every host at most one outgoing pair — so the
// per-host hose constraint (a VM sends at most G) maps exactly onto one
// committed pair per source.
func ChainPairs(hosts []topo.NodeID) []Pair {
	if len(hosts) < 2 {
		return nil
	}
	pairs := make([]Pair, 0, len(hosts)-1)
	for i := 0; i+1 < len(hosts); i++ {
		pairs = append(pairs, Pair{Src: hosts[i], Dst: hosts[i+1]})
	}
	return pairs
}
