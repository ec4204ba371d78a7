package placement

import (
	"errors"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/ufabe"
)

// Reject reasons: the one vocabulary both admission front ends — the
// simulated Controller and the daemon's ctlplane.Service — answer with.
const (
	// ReasonInvalid: a malformed request — non-positive guarantee, fewer
	// than one VM, or a weight class outside 0..ufabe.NumWeightClasses-1.
	ReasonInvalid = "invalid"
	// ReasonDuplicate: the tenant id is already held.
	ReasonDuplicate = "duplicate"
	// ReasonPlacement: no feasible hosts — more VMs than the fleet has
	// hosts, no policy placement, or an unroutable chain pair.
	ReasonPlacement = "placement"
	// ReasonHeadroom: a link would exceed its oversubscribed budget.
	ReasonHeadroom = "headroom"
	// ReasonMaterialize: the fabric refused the tenant spec.
	ReasonMaterialize = "materialize"
)

// Admitter is the admission pipeline: validate → Policy.Place →
// ChainPairs → Ledger.Admit → materialize (rolling the ledger back on
// refusal) → Fleet.Place. Both front ends drive it over their own ledger
// and fleet; like the Ledger it is single-goroutine.
type Admitter struct {
	Ledger *Ledger
	Fleet  *Fleet
	Policy Policy
	// Mat realizes admitted tenants; nil is ledger-only operation.
	Mat Materializer
	// Rec, if non-nil, records each completed stage (place, commit,
	// materialize) as an EvStage event under the request's admission
	// trace.
	Rec *telemetry.Recorder
}

// validate returns the reason a request is refused before any policy
// runs, or "" when it may proceed. A VM count above the fleet's host
// count is refused here, so no policy ever sizes per-VM state from it.
func (a *Admitter) validate(req Request, held bool) string {
	switch {
	case req.GuaranteeBps <= 0 || req.VMs < 1 ||
		req.WeightClass < 0 || req.WeightClass >= ufabe.NumWeightClasses:
		return ReasonInvalid
	case held:
		return ReasonDuplicate
	case req.VMs > len(a.Fleet.Hosts):
		return ReasonPlacement
	}
	return ""
}

// Admit runs the whole pipeline for one request at time now; held
// reports whether the front end already holds the id.
func (a *Admitter) Admit(req Request, held bool, now sim.Time) Decision {
	hosts, reason := a.place(req, held)
	if reason != "" {
		return Decision{Reason: reason}
	}
	a.stage(now, req.ID, "place", 2)
	return a.Realize(req, hosts, now)
}

// Evaluate answers the what-if: the decision Admit would return right
// now, with nothing committed.
func (a *Admitter) Evaluate(req Request, held bool) Decision {
	hosts, reason := a.place(req, held)
	if reason != "" {
		return Decision{Reason: reason}
	}
	pairs := ChainPairs(hosts)
	if err := a.Ledger.Check(req.GuaranteeBps, pairs); err != nil {
		return Decision{Reason: reasonOf(err)}
	}
	return Decision{Accepted: true, Hosts: hosts, Pairs: pairs}
}

func (a *Admitter) place(req Request, held bool) ([]topo.NodeID, string) {
	if reason := a.validate(req, held); reason != "" {
		return nil, reason
	}
	hosts := a.Policy.Place(req, a.Fleet, a.Ledger)
	if len(hosts) != req.VMs {
		return nil, ReasonPlacement
	}
	return hosts, ""
}

// Realize commits a request onto already chosen hosts — the pipeline
// after the policy step, also used to restore recorded placements.
func (a *Admitter) Realize(req Request, hosts []topo.NodeID, now sim.Time) Decision {
	pairs := ChainPairs(hosts)
	if err := a.Ledger.Admit(req.ID, req.GuaranteeBps, pairs); err != nil {
		return Decision{Reason: reasonOf(err)}
	}
	a.stage(now, req.ID, "commit", 3)
	if a.Mat != nil {
		if !a.Mat.AddTenant(tenantSpec(req, pairs)) {
			a.Ledger.Release(req.ID)
			return Decision{Reason: ReasonMaterialize}
		}
		a.stage(now, req.ID, "materialize", 4)
	}
	a.Fleet.Place(hosts)
	return Decision{Accepted: true, Hosts: hosts, Pairs: pairs}
}

// Release tears a tenant down: data-plane state first (finish probes
// drain its registers), then the ledger commitment and the host slots.
// Returns false when the ledger holds no such tenant.
func (a *Admitter) Release(id int32, hosts []topo.NodeID) bool {
	if !a.Ledger.Has(id) {
		return false
	}
	if a.Mat != nil {
		a.Mat.RemoveTenant(id)
	}
	a.Ledger.Release(id)
	a.Fleet.Release(hosts)
	return true
}

// reasonOf maps a ledger refusal to its reject reason. Validation has
// already vetted the guarantee, so ErrInvalid here is an unroutable pair.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrHeadroom):
		return ReasonHeadroom
	case errors.Is(err, ErrDuplicate):
		return ReasonDuplicate
	}
	return ReasonPlacement
}

// tenantSpec converts an admitted request and its chain into the churn
// surface's tenant spec.
func tenantSpec(req Request, pairs []Pair) chaos.TenantSpec {
	sp := chaos.TenantSpec{
		VF:           req.ID,
		GuaranteeBps: req.GuaranteeBps,
		WeightClass:  req.WeightClass,
	}
	for _, p := range pairs {
		sp.Pairs = append(sp.Pairs, chaos.PairSpec{
			Src: p.Src, Dst: p.Dst, BacklogBytes: req.BacklogBytes,
		})
	}
	return sp
}

// stage traces one step of the admission pipeline under the request's
// admission trace.
func (a *Admitter) stage(now sim.Time, id int32, note string, span uint64) {
	if a.Rec == nil {
		return
	}
	a.Rec.Record(telemetry.Event{
		T:      int64(now),
		Kind:   telemetry.EvStage,
		Entity: "placement.ctl",
		A:      int64(id),
		Note:   note,
		Trace:  telemetry.SpanID(telemetry.TraceAdmission, int64(id)),
		Span:   span,
	})
}
