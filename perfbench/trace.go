package main

// Tracing from outside the program: seam wrappers around the μFAB-C
// forwarding hook and the μFAB-E packet handler, installed through the
// dataplane's public SetSwitchAgent/SetHandler, plus the public counters of
// every layer. Wrappers run on shard workers, so every node has its own
// accumulator with a single writer; they are summed after the run, when
// the workers are parked.

import (
	"time"

	"ufab/internal/dataplane"
	"ufab/internal/sim"
	"ufab/internal/vfabric"
)

// nodeAcc is one node's call counter and time inside the wrapped call. The
// padding keeps two nodes' accumulators, written by different workers, off
// one cache line.
type nodeAcc struct {
	calls, ns uint64
	_         [48]byte
}

// timeSwitchAgent wraps a node's μFAB-C agent.
type timeSwitchAgent struct {
	inner dataplane.SwitchAgent
	acc   *nodeAcc
}

func (w *timeSwitchAgent) OnForward(pkt *dataplane.Packet, out *dataplane.Port, now sim.Time) {
	t0 := time.Now()
	w.inner.OnForward(pkt, out, now)
	w.acc.ns += uint64(time.Since(t0))
	w.acc.calls++
}

// timeHandler wraps a host's μFAB-E agent; every call is one packet
// delivered to a host.
type timeHandler struct {
	inner dataplane.Handler
	acc   *nodeAcc
}

func (w *timeHandler) HandlePacket(pkt *dataplane.Packet) {
	t0 := time.Now()
	w.inner.HandlePacket(pkt)
	w.acc.ns += uint64(time.Since(t0))
	w.acc.calls++
}

// fabricTracer holds the accumulators of one traced fabric.
type fabricTracer struct {
	fwd, hdl []*nodeAcc
}

// attachTracer wraps every forwarding agent and packet handler of f.
func attachTracer(f *vfabric.Fabric) *fabricTracer {
	tr := &fabricTracer{}
	for id, c := range f.Cores {
		acc := &nodeAcc{}
		tr.fwd = append(tr.fwd, acc)
		f.Net.SetSwitchAgent(id, &timeSwitchAgent{inner: c, acc: acc})
	}
	for id, e := range f.Edges {
		acc := &nodeAcc{}
		tr.hdl = append(tr.hdl, acc)
		f.Net.SetHandler(id, &timeHandler{inner: e, acc: acc})
	}
	return tr
}

func sumAcc(accs []*nodeAcc) (calls, ns uint64) {
	for _, a := range accs {
		calls += a.calls
		ns += a.ns
	}
	return calls, ns
}

// ratio is num/den, 0 when den is 0 (a layer the run did not exercise).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayerUnits lists every per-layer metric with its unit. Every traced
// run prints all of them; a layer a workload does not exercise reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.peak_pending", "count"}, {"sim.ns_per_event", "ns"},
	{"sim.events_per_s", "1/s"}, {"sim.self_s", "s"},
	{"sim.window_stalls", "count"}, {"sim.send_spins", "count"}, {"sim.seals", "count"},
	{"sim.seal_ms", "ms"}, {"sched.self_s", "s"},
	{"dp.deliveries", "count"}, {"dp.drops", "count"}, {"dp.max_queue_kb", "KB"}, {"dp.self_s", "s"},
	{"c.forward_calls", "count"}, {"c.forward_ns", "ns"}, {"c.probes_seen", "count"}, {"c.self_s", "s"},
	{"e.handle_calls", "count"}, {"e.handle_ns", "ns"}, {"e.probes_sent", "count"},
	{"e.probe_overhead", "ratio"}, {"e.migrations", "count"}, {"e.losses", "count"}, {"e.self_s", "s"},
	{"tel.trace_events", "count"}, {"tel.trace_dropped", "count"}, {"tel.hist_observations", "count"},
	{"tel.self_s", "s"},
	{"audit.excused", "count"}, {"audit.unexcused", "count"}, {"audit.self_s", "s"},
	{"mem.self_s", "s"}, {"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"fab.self_s", "s"}, {"bench.self_s", "s"}, {"other.self_s", "s"},
	{"ctl.api_p50_ms", "ms"}, {"ctl.api_p99_ms", "ms"}, {"ctl.server_admit_p50_ms", "ms"}, {"ctl.server_admit_p99_ms", "ms"},
	{"ctl.server_release_p50_ms", "ms"}, {"ctl.server_release_p99_ms", "ms"},
	{"ctl.engine_wait_p50_ms", "ms"}, {"ctl.engine_wait_p99_ms", "ms"},
	{"ctl.tick_events", "count"}, {"ctl.admitted", "count"}, {"ctl.rejected", "count"},
	{"ctl.reconcile_passes", "count"}, {"ctl.wal_bytes", "bytes"}, {"gen.late_p99_ms", "ms"},
	{"ctl.self_s", "s"},
	{"trace.cpu_s", "s"}, {"trace.overhead", "ratio"}, {"prof.coverage", "ratio"},
	{"fid.fct_p99_slowdown", "ratio"},
}

// newLayerMetrics returns every per-layer metric at 0.
func newLayerMetrics() metrics {
	m := metrics{}
	for _, u := range perLayerUnits {
		m.set(u.name, 0, u.unit)
	}
	return m
}

// add sets the named per-layer metric, keeping its declared unit.
func (m metrics) add(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// setSelf records profile self time per layer, in seconds.
func (m metrics) setSelf(selfNS map[string]int64) {
	for layer, ns := range selfNS {
		m.add(layer+".self_s", float64(ns)/1e9)
	}
}

// layers reads one traced fabric repeat's per-layer metrics.
func (tr *fabricTracer) layers(r *fabricRun, cost phaseCost, selfNS map[string]int64) metrics {
	f := r.f
	m := newLayerMetrics()
	es := f.Eng.(sim.StatsSource).Stats()
	m.add("sim.events", float64(es.Processed))
	m.add("sim.peak_pending", float64(es.PeakPending))
	m.add("sim.ns_per_event", cost.wallS*1e9/float64(es.Processed))
	m.add("sim.events_per_s", float64(es.Processed)/cost.wallS)
	if hs, ok := f.Eng.(sim.HealthSource); ok {
		var stalls, spins, seals, sealNS uint64
		for _, h := range hs.Health() {
			stalls += h.WindowStalls
			spins += h.SendSpins
			seals += h.Seals
			sealNS += h.SealNanos
		}
		m.add("sim.window_stalls", float64(stalls))
		m.add("sim.send_spins", float64(spins))
		m.add("sim.seals", float64(seals))
		m.add("sim.seal_ms", float64(sealNS)/1e6)
	}
	fc, fns := sumAcc(tr.fwd)
	hc, hns := sumAcc(tr.hdl)
	m.add("dp.deliveries", float64(hc))
	m.add("dp.drops", float64(f.Net.TotalDrops))
	m.add("dp.max_queue_kb", float64(f.MaxQueueBytes())/1024)
	m.add("c.forward_calls", float64(fc))
	m.add("c.forward_ns", ratio(fns, fc))
	m.add("e.handle_calls", float64(hc))
	m.add("e.handle_ns", ratio(hns, hc))
	fabricCounters(m, f)
	total, dropped := r.reg.TraceTotals()
	m.add("tel.trace_events", float64(total))
	m.add("tel.trace_dropped", float64(dropped))
	var obs uint64
	for _, h := range r.reg.Snapshot().Histograms {
		obs += h.Count
	}
	m.add("tel.hist_observations", float64(obs))
	m.add("audit.excused", float64(r.log.Excused()))
	m.add("audit.unexcused", float64(r.log.Unexcused()))
	m.add("gc.cycles", cost.gcs)
	m.add("gc.pause_ms", cost.pauseMS)
	m.add("trace.cpu_s", cost.cpuS)
	m.setSelf(selfNS)
	return m
}

// fabricCounters reads the agents' public counters: probes seen by μFAB-C,
// probes sent, probe-to-data bytes, migrations and loss episodes of μFAB-E.
func fabricCounters(m metrics, f *vfabric.Fabric) {
	var seen, sent, probeB, dataB, migr uint64
	for _, c := range f.Cores {
		seen += c.ProbesSeenCount()
	}
	for _, e := range f.Edges {
		sent += e.ProbesSentCount()
		probeB += e.ProbeBytesCount()
		dataB += e.DataBytesCount()
		migr += e.MigrationsCount()
	}
	var losses int
	for _, fl := range f.Flows {
		losses += fl.Pair.Losses
	}
	m.add("c.probes_seen", float64(seen))
	m.add("e.probes_sent", float64(sent))
	m.add("e.probe_overhead", ratio(probeB, dataB))
	m.add("e.migrations", float64(migr))
	m.add("e.losses", float64(losses))
}

// tracedLayers reduces traced repeats to per-layer medians, and adds the
// tracing overhead against the plain repeat's run time and the share of
// CPU time the profile attributed.
func tracedLayers(traced []repeat, plainRunS float64) metrics {
	m := newLayerMetrics()
	for _, u := range perLayerUnits {
		m.add(u.name, col(traced, func(r repeat) float64 { return r.layers[u.name].Value }).P(0.5))
	}
	runS := col(traced, func(r repeat) float64 { return r.cost.wallS }).P(0.5)
	m.add("trace.overhead", runS/plainRunS-1)
	m.add("prof.coverage", profCoverage(traced))
	return m
}

// profCoverage is the profile's attributed self time over the traced
// phases' CPU time, summed over repeats.
func profCoverage(traced []repeat) float64 {
	var self, cpu float64
	for _, r := range traced {
		for _, l := range profLayers {
			self += r.layers[l+".self_s"].Value
		}
		cpu += r.cost.cpuS
	}
	return self / cpu
}
