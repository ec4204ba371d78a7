package placement

import (
	"fmt"

	"ufab/internal/chaos"
	"ufab/internal/sim"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
)

// Request asks the controller to admit one tenant: a hose guarantee per
// VM, a VM count (materialized as a chain of VM-pairs), and a WFQ weight
// class.
type Request struct {
	// ID becomes the tenant's VF id; it must be unique among admitted
	// tenants.
	ID int32
	// GuaranteeBps is the per-VM hose guarantee.
	GuaranteeBps float64
	// VMs is how many VMs to place (each on a distinct host).
	VMs int
	// WeightClass is the WFQ class (0..7).
	WeightClass int
	// BacklogBytes per materialized pair; <= 0 means effectively infinite.
	BacklogBytes int64
}

// Decision is the controller's verdict on one request.
type Decision struct {
	Accepted bool
	// Reason explains a rejection: ReasonInvalid, ReasonDuplicate,
	// ReasonPlacement, ReasonHeadroom or ReasonMaterialize.
	Reason string
	// Hosts are the placed VM locations (accepted only).
	Hosts []topo.NodeID
	// Pairs is the committed chain (accepted only).
	Pairs []Pair
	// SubmittedAt/DecidedAt bound the decision latency (queue wait +
	// service time).
	SubmittedAt, DecidedAt sim.Time
}

// Materializer turns an admitted spec into data-plane state.
// *vfabric.Fabric implements it; ledger-only studies leave it nil.
type Materializer interface {
	AddTenant(spec chaos.TenantSpec) bool
	RemoveTenant(vf int32) bool
}

// Config parameterizes a Controller.
type Config struct {
	// Oversubscription scales every link's admission budget: a request is
	// admitted only while committed + delta ≤ factor·capacity on every
	// affected link. 1.0 (the default) admits at most line rate — the
	// paper's predictability precondition; >1 deliberately oversubscribes.
	Oversubscription float64
	// SlotsPerHost caps VMs per host (default 8).
	SlotsPerHost int
	// MaxPaths bounds the ledger's per-pair ECMP enumeration (0 = all).
	MaxPaths int
	// DecisionLatency is the service time per admission decision;
	// requests queue FIFO behind it (default 10 µs). Time-to-admit =
	// queue wait + service.
	DecisionLatency sim.Duration
	// Policy picks VM hosts (default FirstFit).
	Policy Policy
	// Telemetry, if non-nil, publishes placement.ctl.* counters and
	// records EvPlacement flight-recorder events.
	Telemetry *telemetry.Registry
}

// Controller is the simulated admission front end: requests flow
// through a FIFO decision queue into the shared admission pipeline
// (Admitter). It must run on the simulation engine's goroutine.
type Controller struct {
	eng sim.Scheduler
	cfg Config
	adm Admitter

	queue []queued
	busy  bool

	// hostsOf remembers policy-placed hosts per tenant so Release can
	// return the slots.
	hostsOf map[int32][]topo.NodeID

	// Counters (also mirrored to telemetry when attached).
	submitted, admitted, rejected, released int64

	hAdmit *telemetry.Histogram
}

type queued struct {
	req  Request
	at   sim.Time
	done func(Decision)
}

// NewController builds the control plane over the graph. mat may be nil
// (ledger-only operation — admitted tenants exist on paper only).
func NewController(eng sim.Scheduler, g *topo.Graph, mat Materializer, cfg Config) *Controller {
	if cfg.Oversubscription == 0 {
		cfg.Oversubscription = 1.0
	}
	if cfg.SlotsPerHost == 0 {
		cfg.SlotsPerHost = 8
	}
	if cfg.DecisionLatency == 0 {
		cfg.DecisionLatency = 10 * sim.Microsecond
	}
	if cfg.Policy == nil {
		cfg.Policy = FirstFit{}
	}
	c := &Controller{
		eng: eng,
		cfg: cfg,
		adm: Admitter{
			Ledger: NewLedger(g, cfg.MaxPaths, cfg.Oversubscription),
			Fleet:  NewFleet(g, cfg.SlotsPerHost),
			Policy: cfg.Policy,
			Mat:    mat,
		},
		hostsOf: make(map[int32][]topo.NodeID),
	}
	if cfg.Telemetry != nil {
		c.adm.Rec = cfg.Telemetry.Recorder()
		c.hAdmit = cfg.Telemetry.Histogram("placement.ctl.admit_latency_us")
	}
	return c
}

// Ledger exposes the controller's subscription account (read side for
// the auditor and experiments).
func (c *Controller) Ledger() *Ledger { return c.adm.Ledger }

// Fleet exposes the slot-occupancy view.
func (c *Controller) Fleet() *Fleet { return c.adm.Fleet }

// Policy returns the active placement policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// Submit enqueues a request; done (optional) fires with the decision
// when the controller reaches it. Decisions are served FIFO, one per
// DecisionLatency, so time-to-admit reflects control-plane load.
func (c *Controller) Submit(req Request, done func(Decision)) {
	c.submitted++
	c.queue = append(c.queue, queued{req: req, at: c.eng.Now(), done: done})
	c.adm.stage(c.eng.Now(), req.ID, "queue", 1)
	c.serve()
}

// serve starts the decision timer when the controller is idle.
func (c *Controller) serve() {
	if c.busy || len(c.queue) == 0 {
		return
	}
	c.busy = true
	c.eng.At(c.eng.Now()+sim.Time(c.cfg.DecisionLatency), func() {
		q := c.queue[0]
		c.queue = c.queue[1:]
		d := c.decide(q.req)
		d.SubmittedAt = q.at
		d.DecidedAt = c.eng.Now()
		c.hAdmit.Observe((d.DecidedAt - d.SubmittedAt).Micros())
		c.busy = false
		if q.done != nil {
			q.done(d)
		}
		c.serve()
	})
}

// decide runs one admission decision through the shared pipeline; the
// ledger is the controller's id registry.
func (c *Controller) decide(req Request) Decision {
	d := c.adm.Admit(req, c.adm.Ledger.Has(req.ID), c.eng.Now())
	if !d.Accepted {
		c.rejected++
		c.event(req, "reject")
		c.flush()
		return d
	}
	c.hostsOf[req.ID] = d.Hosts
	c.admitted++
	c.event(req, "admit")
	c.flush()
	return d
}

// Release tears an admitted tenant down (see Admitter.Release). Returns
// false for an unknown tenant.
func (c *Controller) Release(id int32) bool {
	if !c.adm.Release(id, c.hostsOf[id]) {
		return false
	}
	delete(c.hostsOf, id)
	c.released++
	c.event(Request{ID: id}, "release")
	c.flush()
	return true
}

// ---- chaos.Admission -------------------------------------------------------

// AdmitSpec implements chaos.Admission: a scenario's explicit
// TenantArrive spec (hosts already chosen) runs only the pipeline's
// ledger step, committing on accept. The injector materializes the spec
// itself, so no Materializer call happens here. Slot occupancy is not
// charged — scenario specs place VMs explicitly, outside the policy's
// slot accounting.
func (c *Controller) AdmitSpec(spec chaos.TenantSpec) bool {
	pairs := make([]Pair, 0, len(spec.Pairs))
	for _, p := range spec.Pairs {
		pairs = append(pairs, Pair{Src: p.Src, Dst: p.Dst})
	}
	req := Request{ID: spec.VF, GuaranteeBps: spec.GuaranteeBps, VMs: len(spec.Pairs) + 1}
	if c.adm.Ledger.Admit(spec.VF, spec.GuaranteeBps, pairs) != nil {
		c.rejected++
		c.event(req, "reject")
		c.flush()
		return false
	}
	c.admitted++
	c.event(req, "admit")
	c.flush()
	return true
}

// ReleaseTenant implements chaos.Admission: the injector already tore the
// tenant down (or never materialized it); only the commitment returns.
func (c *Controller) ReleaseTenant(vf int32) bool {
	if !c.adm.Ledger.Release(vf) {
		return false
	}
	if hosts, ok := c.hostsOf[vf]; ok {
		c.adm.Fleet.Release(hosts)
		delete(c.hostsOf, vf)
	}
	c.released++
	c.event(Request{ID: vf}, "release")
	c.flush()
	return true
}

// ---- accounting ------------------------------------------------------------

// Stats summarizes the controller's lifetime counters.
type Stats struct {
	Submitted, Admitted, Rejected, Released int64
	Active                                  int
	Pending                                 int
}

// Stats returns the controller's lifetime counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Submitted: c.submitted,
		Admitted:  c.admitted,
		Rejected:  c.rejected,
		Released:  c.released,
		Active:    c.adm.Ledger.Tenants(),
		Pending:   len(c.queue),
	}
}

// event records an EvPlacement flight-recorder entry, joined to the
// request's admission trace.
func (c *Controller) event(req Request, note string) {
	if c.adm.Rec == nil {
		return
	}
	c.adm.Rec.Record(telemetry.Event{
		T:      int64(c.eng.Now()),
		Kind:   telemetry.EvPlacement,
		Entity: "placement.ctl",
		A:      int64(req.ID),
		B:      int64(req.VMs),
		V:      req.GuaranteeBps,
		Note:   note,
		Trace:  telemetry.SpanID(telemetry.TraceAdmission, int64(req.ID)),
		Span:   5,
	})
}

// flush mirrors the counters into the registry.
func (c *Controller) flush() {
	reg := c.cfg.Telemetry
	if reg == nil {
		return
	}
	set := func(name string, v int64) {
		cnt := reg.Counter(name)
		if d := v - cnt.Value(); d > 0 {
			cnt.Add(d)
		}
	}
	set("placement.ctl.submitted", c.submitted)
	set("placement.ctl.admitted", c.admitted)
	set("placement.ctl.rejected", c.rejected)
	set("placement.ctl.released", c.released)
	reg.Gauge("placement.ctl.active_tenants").Set(float64(c.adm.Ledger.Tenants()))
	reg.Gauge("placement.ctl.max_subscription").SetMax(c.adm.Ledger.MaxSubscription())
}

var _ chaos.Admission = (*Controller)(nil)

// String names the controller's configuration for experiment labels.
func (c *Controller) String() string {
	return fmt.Sprintf("placement(policy=%s, oversub=%.2f, slots=%d)",
		c.cfg.Policy.Name(), c.cfg.Oversubscription, c.cfg.SlotsPerHost)
}
