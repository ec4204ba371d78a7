package main

// The two fabric workloads. Each repeat builds a fresh fabric from the
// seed's inputs, runs it to a fixed simulated horizon on one worker, and
// fingerprints the simulated outcome. Every repeat of one seed must
// produce the same fingerprint, traced or not, and a short horizon must
// produce the same fingerprint on one worker and on max(2, nproc) workers.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ufab/internal/audit"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
	"ufab/internal/topo"
	"ufab/internal/vfabric"
	"ufab/internal/workload"
)

// fabricWorkload describes one fabric workload.
type fabricWorkload struct {
	// horizon is the simulated time one repeat covers; gateHorizon is the
	// short horizon of the worker-identity gate.
	horizon, gateHorizon sim.Duration
	// messages makes the counted operation a message (generated, failed
	// when not completed by the horizon) instead of a packet (delivered,
	// failed when dropped).
	messages bool
	build    func(seed int64, workers int, horizon sim.Duration) (*fabricRun, error)
}

// bulkPerm: 256-host 3-tier Clos, cross-pod permutation, one backlogged
// 1 Gb/s-guaranteed VF per host, one worker, telemetry off. It loads the
// per-packet data path at depth.
var bulkPerm = fabricWorkload{
	horizon:     3 * sim.Millisecond,
	gateHorizon: 400 * sim.Microsecond,
	build:       buildBulkPerm,
}

// msgMix: 32-host 1:1 Clos, 3 cross-pod VM-pairs per host, WebSearch
// messages at load 0.7 arriving over the first 3/4 of the horizon,
// telemetry, flight recorder and auditor on, one worker. It loads
// per-pair start/stop, admission, completion and the telemetry/audit
// ticks.
var msgMix = fabricWorkload{
	horizon:     20 * sim.Millisecond,
	gateHorizon: 2 * sim.Millisecond,
	messages:    true,
	build:       buildMsgMix,
}

// fabricRun is one built fabric with its workload installed.
type fabricRun struct {
	f       *vfabric.Fabric
	reg     *telemetry.Registry
	log     *audit.Log
	horizon sim.Duration
	// msgs holds msg-mix's per-pair message state, in pair order.
	msgs []*msgPair
}

// msgPair is one msg-mix VM-pair. Its fields are written only from the
// source host's shard.
type msgPair struct {
	msgs      *workload.Messages
	generated int64
	slow      stats.Samples
}

func buildBulkPerm(seed int64, workers int, horizon sim.Duration) (*fabricRun, error) {
	cfg := topo.ClosConfig{Pods: 8, ToRsPerPod: 4, AggsPerPod: 4, Cores: 16, HostsPerToR: 8,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond}
	cl := topo.NewClos(cfg)
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Cfg: vfabric.Config{Seed: seed}, Shards: workers})
	if err != nil {
		return nil, err
	}
	perHost := cfg.ToRsPerPod * cfg.HostsPerToR
	dst := crossPodPermutation(rand.New(rand.NewSource(seed)), cfg.Pods, perHost)
	for i, src := range cl.Hosts {
		vf := f.AddVF(int32(i+1), 1e9, 0)
		fl := f.AddFlow(vf, src, cl.Hosts[dst[i]], 0)
		fl.Buffer.Add(1 << 42)
	}
	return &fabricRun{f: f, horizon: horizon}, nil
}

// crossPodPermutation maps host i (pod-major order) to a destination in
// another pod, every host receiving exactly one flow: a derangement of the
// pods composed with a random host order inside each destination pod.
func crossPodPermutation(rng *rand.Rand, pods, perPod int) []int {
	podOf := rng.Perm(pods)
	podTo := make([]int, pods)
	for i := range podOf {
		podTo[podOf[i]] = podOf[(i+1)%pods]
	}
	dst := make([]int, pods*perPod)
	for p := 0; p < pods; p++ {
		order := rng.Perm(perPod)
		for j := 0; j < perPod; j++ {
			dst[p*perPod+j] = podTo[p]*perPod + order[j]
		}
	}
	return dst
}

// msgMix constants: three VFs (one per permutation offset) with a 3 Gb/s
// hose each, so every host's 10G uplink carries at most 9 Gb/s of
// guarantee and the fabric is admissible.
const (
	msgPairsPerHost = 3
	msgGuarantee    = 3e9
	msgLoad         = 0.7
	msgSample       = 250 * sim.Microsecond
)

func buildMsgMix(seed int64, workers int, horizon sim.Duration) (*fabricRun, error) {
	cl := topo.NewClos(topo.ClosConfig{Pods: 4, ToRsPerPod: 4, AggsPerPod: 2, Cores: 8, HostsPerToR: 2,
		LinkCapacity: topo.Gbps(10), PropDelay: sim.Microsecond})
	reg := telemetry.New()
	reg.EnableRecorder(0)
	log := &audit.Log{}
	f, err := vfabric.Build(vfabric.BuildOptions{Graph: cl.Graph, Shards: workers,
		Cfg: vfabric.Config{Seed: seed, Telemetry: reg, Audit: &audit.Config{Log: log}}})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(cl.Hosts)
	// Offsets in [perPod, n-perPod] send every pair out of its pod, so
	// every message crosses shards and every path has the same length.
	// Seeds that drew intra-pod offsets ran fewer events, which spread the
	// host-cost figures by about 15% across seeds.
	const perPod = 8
	offsets := rng.Perm(n - 2*perPod + 1)[:msgPairsPerHost]
	for k := range offsets {
		offsets[k] += perPod
	}
	vfs := make([]*vfabric.VF, msgPairsPerHost)
	for k := range vfs {
		vfs[k] = f.AddVF(int32(k+1), msgGuarantee, 2)
	}
	pairs := n * msgPairsPerHost
	sched := msgArrivals(rng, pairs, horizon*3/4, msgLoad*topo.Gbps(10)/msgPairsPerHost, workload.WebSearch())
	run := &fabricRun{f: f, reg: reg, log: log, horizon: horizon}
	for i, src := range cl.Hosts {
		hs := f.HostScheduler(src)
		for k, off := range offsets {
			mp := &msgPair{msgs: &workload.Messages{Sharing: true}}
			run.msgs = append(run.msgs, mp)
			f.AddFlowDemand(vfs[k], src, cl.Hosts[(i+off)%n], 0, mp.msgs)
			mp.msgs.Observe(func(m workload.Message, fct sim.Duration) {
				mp.slow.Add(stats.Slowdown(fct, int(m.Size), msgGuarantee))
			})
			for _, a := range sched[i*msgPairsPerHost+k] {
				hs.At(a.at, func() {
					mp.generated++
					mp.msgs.Send(a.size, a.at)
				})
			}
		}
	}
	f.StartSampling(msgSample)
	return run, nil
}

// arrival is one scheduled message.
type arrival struct {
	at   sim.Time
	size int64
}

// msgArrivals draws msg-mix's messages for every pair over [0, window):
// the arrival times of a Poisson process conditioned on its expected count
// (uniform times, sorted), and sizes dealt at random from a stratified
// sample of dist. Both fix the bytes offered, so seeds differ in when,
// where and in which order messages arrive but not in how much work they
// bring. Plain sampling of a distribution this heavy-tailed (1% of
// messages carry a quarter of the bytes) moved the offered load, and with
// it every host-cost figure, by about ±20% between seeds.
func msgArrivals(rng *rand.Rand, pairs int, window sim.Duration, loadBps float64, dist *workload.SizeDist) [][]arrival {
	total := int(math.Round(float64(pairs) * loadBps * window.Seconds() / 8 / dist.Mean()))
	counts := make([]int, pairs)
	for i := range counts {
		counts[i] = total / pairs
	}
	for _, i := range rng.Perm(pairs)[:total%pairs] {
		counts[i]++
	}
	sizes := make([]int64, total)
	for j := range sizes {
		sizes[j] = sizeAt(dist, (float64(j)+0.5)/float64(total))
	}
	rng.Shuffle(total, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([][]arrival, pairs)
	for p := range out {
		times := make([]float64, counts[p])
		for i := range times {
			times[i] = rng.Float64()
		}
		sort.Float64s(times)
		for _, u := range times {
			out[p] = append(out[p], arrival{at: sim.Time(u * float64(window)), size: sizes[0]})
			sizes = sizes[1:]
		}
	}
	return out
}

// sizeAt is dist's inverse CDF at u, interpolated as SizeDist.Sample does.
func sizeAt(d *workload.SizeDist, u float64) int64 {
	i := sort.SearchFloat64s(d.CDF, u)
	if i == 0 {
		return d.Sizes[0]
	}
	if i >= len(d.Sizes) {
		return d.Sizes[len(d.Sizes)-1]
	}
	f0, f1 := d.CDF[i-1], d.CDF[i]
	s0, s1 := float64(d.Sizes[i-1]), float64(d.Sizes[i])
	return int64(s0 + (u-f0)/(f1-f0)*(s1-s0))
}

// outcome is the simulated result of one repeat.
type outcome struct {
	events               uint64
	delivered            int64
	rttP99               float64
	deliveries, drops    uint64
	unexcused, excused   int
	generated, completed int64
	fctP99               float64
	digest               string
}

// outcome summarizes the finished run and fingerprints it: event count,
// every pair's delivered bytes and losses, the pooled RTT p99, drops,
// audit counts and message counts.
func (r *fabricRun) outcome() outcome {
	var o outcome
	h := sha256.New()
	es := r.f.Eng.(sim.StatsSource).Stats()
	o.events = es.Processed
	fmt.Fprintf(h, "events %d\n", o.events)
	var rtt stats.Samples
	for _, fl := range r.f.Flows {
		o.delivered += fl.Pair.Delivered
		rtt.AddAll(&fl.Pair.RTT)
		fmt.Fprintf(h, "pair %d %d %d\n", fl.Pair.ID, fl.Pair.Delivered, fl.Pair.Losses)
	}
	o.rttP99 = rtt.P(0.99)
	o.drops = r.f.Net.TotalDrops
	for i := range r.f.Net.Ports {
		p := &r.f.Net.Ports[i]
		if r.f.Graph.Node(p.Link.Dst).Kind == topo.Host {
			o.deliveries += p.TxPackets
		}
	}
	o.unexcused, o.excused = r.log.Unexcused(), r.log.Excused()
	var slow stats.Samples
	for _, mp := range r.msgs {
		o.generated += mp.generated
		o.completed += mp.msgs.Completed
		slow.AddAll(&mp.slow)
	}
	if slow.Len() > 0 {
		o.fctP99 = slow.P(0.99)
	}
	fmt.Fprintf(h, "rtt %.9g drops %d deliveries %d audit %d %d msgs %d %d fct %.9g\n",
		o.rttP99, o.drops, o.deliveries, o.unexcused, o.excused, o.generated, o.completed, o.fctP99)
	o.digest = hex.EncodeToString(h.Sum(nil))[:24]
	return o
}

// check applies the workload-independent sanity rules to an outcome.
func (o outcome) check() error {
	if o.events == 0 || o.delivered <= 0 {
		return gateFail("no traffic delivered (events %d, bytes %d)", o.events, o.delivered)
	}
	if o.completed > o.generated {
		return gateFail("%d messages completed but only %d generated", o.completed, o.generated)
	}
	if math.IsNaN(o.rttP99) || o.rttP99 <= 0 {
		return gateFail("no RTT samples")
	}
	return nil
}

// repeat is the measurement of one repeat.
type repeat struct {
	setupS float64
	cost   phaseCost
	heapMB float64
	out    outcome
	layers metrics // traced repeats only
}

// simulate builds and runs one repeat. With traced set, the seam wrappers
// are installed and the run phase is CPU-profiled.
func (w fabricWorkload) simulate(seed int64, workers int, horizon sim.Duration, traced bool) (repeat, error) {
	var rp repeat
	// Collect the previous repeat's fabric first, so set-up never pays for
	// it.
	runtime.GC()
	c0 := readCost()
	r, err := w.build(seed, workers, horizon)
	if err != nil {
		return rp, err
	}
	rp.setupS = since(c0).wallS
	var tr *fabricTracer
	if traced {
		tr = attachTracer(r.f)
	}
	runtime.GC()
	var prof *cpuProfile
	if traced {
		if prof, err = startProfile(); err != nil {
			return rp, err
		}
	}
	c1 := readCost()
	r.f.Eng.RunUntil(r.horizon)
	rp.cost = since(c1)
	if traced {
		selfNS, err := prof.stop()
		if err != nil {
			return rp, err
		}
		rp.layers = tr.layers(r, rp.cost, selfNS)
	}
	rp.heapMB = liveHeapMB()
	rp.out = r.outcome()
	return rp, rp.out.check()
}

// scaled shrinks a duration by the run's scale, to no less than 10 µs.
func scaled(d sim.Duration, scale float64) sim.Duration {
	if d = sim.Duration(float64(d) * scale); d < 10*sim.Microsecond {
		d = 10 * sim.Microsecond
	}
	return d
}

// measureWorkers is the sharded core's worker count in measured repeats.
// On a 2-vCPU VM, msg-mix on two workers, which spin-wait on each other,
// spread run_s (quartile distance over median) by 0.14 and 0.22 over two
// sets of ten seeds, and by 0.40 over five seeds against 0.13 on one
// worker in runs interleaved with them.
const measureWorkers = 1

// minRepeats is the fewest measured repeats a run makes, however long
// they take; medians over fewer would follow single outliers.
const minRepeats = 3

func runFabric(w fabricWorkload, o options) (*result, error) {
	horizon := scaled(w.horizon, o.Scale)
	gateH := scaled(w.gateHorizon, o.Scale)
	workers := measureWorkers
	many := runtime.NumCPU()
	if many < 2 {
		many = 2
	}

	// Gate: one worker and max(2, nproc) workers agree on a short horizon.
	one, err := w.simulate(o.Seed, 1, gateH, false)
	if err != nil {
		return nil, err
	}
	par, err := w.simulate(o.Seed, many, gateH, false)
	if err != nil {
		return nil, err
	}
	if one.out.digest != par.out.digest {
		return nil, gateFail("digest differs between 1 and %d workers: %s vs %s", many, one.out.digest, par.out.digest)
	}

	deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	var plain, traced []repeat
	for len(plain) == 0 || (!o.Trace && (len(plain) < minRepeats || time.Now().Before(deadline))) {
		rp, err := w.simulate(o.Seed, workers, horizon, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rp)
	}
	for o.Trace && (len(traced) < minRepeats || time.Now().Before(deadline)) {
		rp, err := w.simulate(o.Seed, workers, horizon, true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, rp)
	}
	ref := plain[0].out.digest
	for _, rp := range append(plain[1:], traced...) {
		if err := sameDigest(ref, rp.out.digest); err != nil {
			return nil, err
		}
	}

	out := plain[0].out
	res := &result{
		Digest: ref,
		Meta: map[string]any{"workers": workers, "gate_workers": many, "horizon_ms": horizon.Millis(),
			"gate_horizon_ms": gateH.Millis(),
			"repeats":         len(plain), "traced_repeats": len(traced)},
		Extra: metrics{},
	}
	if w.messages {
		res.Attempted, res.Failed = out.generated, out.generated-out.completed
	} else {
		res.Attempted, res.Failed = int64(out.deliveries+out.drops), int64(out.drops)
	}
	res.Extra.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.Extra.set("sim_fct_p99_slowdown", out.fctP99, "ratio")
	res.Extra.set("audit_unexcused", float64(out.unexcused), "count")
	res.Extra.set("sim_events", float64(out.events), "count")

	if !o.Trace {
		res.Metrics = fabricEndToEnd(plain, horizon, out)
		res.Meta["repeat_run_s"] = col(plain, func(r repeat) float64 { return r.cost.wallS }).TakeAll()
		return res, nil
	}
	res.Metrics = tracedLayers(traced, plain[0].cost.wallS)
	res.Metrics.add("fid.fct_p99_slowdown", out.fctP99)
	return res, nil
}

// sameDigest is the identity rule of the correctness gate.
func sameDigest(want, got string) error {
	if want != got {
		return gateFail("simulated outcome differs between repeats of one seed: %s vs %s", want, got)
	}
	return nil
}

// fabricEndToEnd reduces plain repeats to the end-to-end metrics, medians
// over repeats.
func fabricEndToEnd(plain []repeat, horizon sim.Duration, out outcome) metrics {
	runS := col(plain, func(r repeat) float64 { return r.cost.wallS }).P(0.5)
	m := metrics{}
	m.set("run_s", runS, "s")
	m.set("cpu_s", col(plain, func(r repeat) float64 { return r.cost.cpuS }).P(0.5), "s")
	m.set("setup_s", col(plain, func(r repeat) float64 { return r.setupS }).P(0.5), "s")
	m.set("alloc_mb", col(plain, func(r repeat) float64 { return r.cost.allocMB }).P(0.5), "MB")
	m.set("live_heap_mb", col(plain, func(r repeat) float64 { return r.heapMB }).P(0.5), "MB")
	m.set("sim_goodput_gbps", float64(out.delivered)*8/horizon.Seconds()/1e9, "Gb/s")
	m.set("sim_rtt_p99_us", out.rttP99, "us")
	m.set("sim_realtime_ratio", horizon.Seconds()/runS, "ratio")
	return m
}
