package main

// The ctl-churn workload: the control-plane daemon in process, with its
// default configuration (1 ms of simulated time per 10 ms engine tick, as
// `ufabsim serve` runs it) and its WAL store on disk, driven open loop over
// loopback HTTP. A run plays the schedule once per episode, each on a
// fresh daemon, and reports medians over the episodes. The schedule is
// a pure function of the seed: admit id i, and once H ids have been
// admitted also release id i-H, whatever the answer to its admit was.
// Requests are due once per 1/rate slot, at a random phase inside it:
// evenly spaced requests would meet the daemon's 10 ms engine tick at the
// same few phases for the whole run, so the share that waits behind a
// tick would depend on the phase the run started at.
// Every request is timed from the moment it was due, so a stall also
// charges the requests queued behind it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ufab/internal/ctlplane"
	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/telemetry"
)

const (
	// churnRate is the offered request rate, below the knee: in 10 s
	// episodes run one after the other on a 2-vCPU VM, 60/s kept the
	// engine 62–72% busy with a median latency of 3–4 ms, while 120/s kept
	// it 82% busy, with a median of 9 ms and the load generator 33 ms late
	// at p99.
	churnRate = 60.0
	// churnHold is H, the admitted ids standing before releases start;
	// at three VMs each it stays below the 32×4-slot fleet.
	churnHold = 24
	// churnConns bounds client connections (and request workers).
	churnConns = 2
	// churnSetups is how many daemons a run constructs to time set-up.
	churnSetups = 5
	// churnEpisode is how long one daemon serves the schedule. A run
	// plays the schedule on a fresh daemon per episode and reports
	// medians. The daemon's tick cost grows with its uptime (see
	// METRICS.md, Known findings): at 60 requests/s on a 2-vCPU VM the
	// engine spent 62–83% of its first 10 s in ticks and advanced 0.69–0.97
	// of its simulated pace, but 81–91% of a 30 s run, falling to
	// 0.53–0.70 of its pace with a median latency of 12–30 ms.
	churnEpisode = 10 * time.Second
	// engineWaitEvery is the cadence of the traced run's no-op probe of
	// the daemon's engine goroutine.
	engineWaitEvery = 20 * time.Millisecond
	// requestTimeout turns a hung request into a failure.
	requestTimeout = 10 * time.Second
)

// ctlOp is one scheduled request.
type ctlOp struct {
	Admit bool
	ID    int32
	// K is the admit's index in the schedule's admit order.
	K int
	// Due is when the request is due, from the start of the schedule.
	Due  time.Duration
	Body []byte
}

// admitReq is the wire form of an admit request.
type admitReq struct {
	ID           int32   `json:"id"`
	GuaranteeBps float64 `json:"guarantee_bps"`
	VMs          int     `json:"vms"`
	WeightClass  int     `json:"weight_class"`
	BacklogBytes int64   `json:"backlog_bytes"`
}

// churnSchedule returns the first n requests of the seed's schedule.
func churnSchedule(seed int64, n int) []ctlOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []ctlOp
	for k := 0; len(ops) < n; k++ {
		req := admitReq{
			ID:           int32(k + 1),
			GuaranteeBps: []float64{5e8, 1e9, 2e9}[rng.Intn(3)],
			VMs:          2 + rng.Intn(2),
			WeightClass:  3,
			BacklogBytes: 256 << 10,
		}
		body, _ := json.Marshal(req) // a struct of numbers always marshals
		ops = append(ops, ctlOp{Admit: true, ID: req.ID, K: k, Body: body})
		if k >= churnHold && len(ops) < n {
			id := int32(k - churnHold + 1)
			ops = append(ops, ctlOp{ID: id, K: k - churnHold,
				Body: []byte(`{"id":` + strconv.Itoa(int(id)) + `}`)})
		}
	}
	// Request i is due at a uniformly random time within the i-th slot of
	// 1/churnRate seconds.
	for i := range ops {
		ops[i].Due = time.Duration((float64(i) + rng.Float64()) / churnRate * float64(time.Second))
	}
	return ops
}

// daemonRig is a running daemon behind the benchmark's own HTTP server.
type daemonRig struct {
	d      *ctlplane.Daemon
	dir    string
	srv    *http.Server
	base   string
	served chan error
	tracer *fabricTracer
	mw     *serverTimer
}

// startDaemon constructs a daemon over a fresh store in dir and serves its
// handler on a loopback port. With traced set, the daemon's fabric agents
// and its HTTP handler are wrapped before the engine starts.
func startDaemon(seed int64, dir string, traced bool) (*daemonRig, error) {
	d, err := ctlplane.NewDaemon(ctlplane.DaemonConfig{StoreDir: dir, Seed: seed})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if st := d.Svc.Store(); st != nil {
			st.Close()
		}
		return nil, err
	}
	rig := &daemonRig{d: d, dir: dir, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := d.Handler()
	if traced {
		rig.tracer = attachTracer(d.UF)
		rig.mw = &serverTimer{next: h, lat: map[string]*stats.Samples{}}
		h = rig.mw
	}
	rig.srv = &http.Server{Handler: h}
	go d.Loop()
	go func() { rig.served <- rig.srv.Serve(ln) }()
	return rig, nil
}

// stop shuts the server and the daemon down and waits for both.
func (r *daemonRig) stop() error {
	err := r.srv.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.d.Stop()
	return err
}

// serverTimer times the daemon's handler per endpoint.
type serverTimer struct {
	next http.Handler
	mu   sync.Mutex
	lat  map[string]*stats.Samples
}

func (s *serverTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.next.ServeHTTP(w, r)
	ms := float64(time.Since(t0)) / 1e6
	s.mu.Lock()
	if s.lat[r.URL.Path] == nil {
		s.lat[r.URL.Path] = &stats.Samples{}
	}
	s.lat[r.URL.Path].Add(ms)
	s.mu.Unlock()
}

// reqOutcome is one request's measurement.
type reqOutcome struct {
	latMS, lateMS float64
	// sent and answered are when the request left and its answer arrived.
	sent, answered time.Time
	failed         bool
	// status is the HTTP status (0 on a transport error); accepted is the
	// admit decision.
	status   int
	accepted bool
}

// churnPhase is one run of the schedule against one daemon.
type churnPhase struct {
	out  []reqOutcome
	cost phaseCost
	// wallS is the time from the first request's due time to the last
	// answer; tickS is the part of it the engine spent in its ticks.
	wallS, tickS float64
	simAdv       sim.Duration
	// raced counts releases sent before their admit was answered.
	raced int
	// paceS is the simulated time the episode would cover at the daemon's
	// configured pace (Quantum per TickEvery): the wall time scaled.
	paceS  float64
	heapMB float64
	// dataBytes is the fabric's data bytes sent during the phase; rttP99
	// is the p99 of every edge agent's probe RTT histogram. Tenants come
	// and go, so the per-ack RTT samples of released pairs are gone by the
	// end of the phase; the histograms keep every probe.
	dataBytes uint64
	rttP99    float64
	events    uint64
	stats     ctlplane.Stats
	unexcused int
	engineMS  stats.Samples
}

// readFabric snapshots the daemon's clock, data bytes and engine events
// on its engine goroutine.
func (r *daemonRig) readFabric() (now sim.Time, data, events uint64) {
	r.d.Do(func() {
		now = r.d.Eng.Now()
		for _, e := range r.d.UF.Edges {
			data += e.DataBytesCount()
		}
		events = r.d.Eng.Stats().Processed
	})
	return now, data, events
}

// tickTimer adds up the wall time the daemon's engine spends in its ticks.
// Each tick advances simulated time by one quantum; a marker event at the
// quantum's first nanosecond opens it, and a marker at its last instant
// closes it. The closing marker is scheduled one nanosecond before that
// instant, so it runs after the periodic samplers due there, which were
// scheduled earlier. Only the engine goroutine touches the fields.
type tickTimer struct {
	d       *ctlplane.Daemon
	opened  time.Time
	busy    time.Duration
	stopped bool
}

// tickMarkers is the events a tickTimer adds to every tick.
const tickMarkers = 3

// timeTicks starts timing the daemon's ticks from the next one.
func (r *daemonRig) timeTicks() *tickTimer {
	t := &tickTimer{d: r.d}
	r.d.Do(func() { t.openAt(r.d.Eng.Now() + 1) })
	return t
}

func (t *tickTimer) openAt(at sim.Time) {
	eng, q := t.d.Eng, sim.Time(t.d.Cfg.Quantum)
	eng.At(at, func() {
		if t.stopped {
			return
		}
		t.opened = time.Now()
		end := at - 1 + q
		eng.At(end-1, func() {
			eng.At(end, func() {
				t.busy += time.Since(t.opened)
				t.openAt(end + 1)
			})
		})
	})
}

// stop ends the timing and returns the engine's time in ticks.
func (t *tickTimer) stop() time.Duration {
	var busy time.Duration
	t.d.Do(func() {
		t.stopped = true
		busy = t.busy
	})
	return busy
}

// runChurn drives ops against the rig open loop and checks every answer.
func (r *daemonRig) runChurn(ops []ctlOp, probeEngine bool) (*churnPhase, error) {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: churnConns, MaxIdleConnsPerHost: churnConns,
			DisableCompression: true},
		Timeout: requestTimeout,
	}
	defer client.CloseIdleConnections()
	ph := &churnPhase{out: make([]reqOutcome, len(ops))}

	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	if probeEngine {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(engineWaitEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopProbe:
					return
				case <-tick.C:
					t0 := time.Now()
					r.d.Do(func() {})
					ph.engineMS.Add(float64(time.Since(t0)) / 1e6)
				}
			}
		}()
	}

	sim0, data0, ev0 := r.readFabric()
	ticks := r.timeTicks()
	c0 := readCost()
	start := time.Now().Add(10 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(ops[i].Due) }
	work := make(chan int)
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	last := start
	wg.Add(churnConns)
	for w := 0; w < churnConns; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				sent := time.Now()
				o := r.send(client, ops[i])
				done := time.Now()
				o.sent, o.answered = sent, done
				o.latMS = float64(done.Sub(due(i))) / 1e6
				o.lateMS = float64(sent.Sub(due(i))) / 1e6
				ph.out[i] = o
				lastMu.Lock()
				if done.After(last) {
					last = done
				}
				lastMu.Unlock()
			}
		}()
	}
	for i := range ops {
		time.Sleep(time.Until(due(i)))
		work <- i
	}
	close(work)
	wg.Wait()
	ph.cost = since(c0)
	ph.wallS = last.Sub(start).Seconds()
	ph.tickS = ticks.stop().Seconds()
	close(stopProbe)
	probeWG.Wait()

	sim1, data1, ev1 := r.readFabric()
	ph.simAdv = sim1 - sim0
	cfg := r.d.Cfg
	ph.paceS = ph.wallS * cfg.Quantum.Seconds() / cfg.TickEvery.Seconds()
	ph.dataBytes = data1 - data0
	ph.events = ev1 - ev0

	// Gate: the release answers agree with the admits, the service
	// counted what the clients saw, and the ledger recomputes.
	accepted, released, raced, err := checkReleases(ops, ph.out)
	if err != nil {
		return nil, err
	}
	ph.raced = raced
	var verr error
	rtt := &telemetry.Histogram{}
	r.d.Do(func() {
		verr = r.d.Svc.Verify()
		ph.stats = r.d.Svc.Stats()
		ph.unexcused = r.d.Audit.Unexcused()
		for _, h := range r.d.Reg.Snapshot().Histograms {
			if strings.HasPrefix(h.Name, "ufabe.") && strings.HasSuffix(h.Name, ".probe_rtt_us") {
				rtt.Merge(r.d.Reg.Histogram(h.Name))
			}
		}
	})
	if verr != nil {
		return nil, gateFail("ledger verify after churn: %v", verr)
	}
	if ph.stats.Admitted != accepted || ph.stats.Released != released {
		return nil, gateFail("service counted %d admitted / %d released, clients saw %d / %d",
			ph.stats.Admitted, ph.stats.Released, accepted, released)
	}
	ph.rttP99 = rtt.Quantile(0.99)
	return ph, nil
}

// checkReleases counts the accepted admits and the releases answered 200,
// and checks that every release sent after its admit was answered matches
// the admit's decision: 200 for an accepted id, 404 for a rejected one.
// The two connections do not order an admit before a release sent while
// the admit was still in flight, so such a release may find the id
// unknown; raced counts them instead of judging them.
func checkReleases(ops []ctlOp, out []reqOutcome) (accepted, released int64, raced int, err error) {
	admitAt := map[int]int{}
	for i, op := range ops {
		o := out[i]
		switch {
		case op.Admit:
			admitAt[op.K] = i
			if o.accepted {
				accepted++
			}
		case o.failed:
		default:
			if o.status == http.StatusOK {
				released++
			}
			adm := out[admitAt[op.K]]
			switch {
			case adm.failed:
			case !adm.answered.Before(o.sent):
				raced++
			case (o.status == http.StatusOK) != adm.accepted:
				return 0, 0, 0, gateFail("release of id %d answered %d, but its admit was accepted=%v",
					op.ID, o.status, adm.accepted)
			}
		}
	}
	return accepted, released, raced, nil
}

// send issues one request and classifies the answer. Admission
// rejections and 404s on releasing a rejected id are decisions, not
// failures; transport errors, timeouts and 5xx are failures.
func (r *daemonRig) send(client *http.Client, op ctlOp) reqOutcome {
	path := "/v1/release"
	if op.Admit {
		path = "/v1/admit"
	}
	resp, err := client.Post(r.base+path, "application/json", bytes.NewReader(op.Body))
	if err != nil {
		return reqOutcome{failed: true}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	o := reqOutcome{status: resp.StatusCode}
	switch {
	case err != nil || resp.StatusCode >= 500:
		o.failed = true
	case op.Admit:
		var dec ctlplane.Decision
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &dec) != nil {
			o.failed = true
		}
		o.accepted = dec.Accepted
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound:
		o.failed = true
	}
	return o
}

// storeBytes sums the sizes of the store's files.
func storeBytes(dir string) float64 {
	var n int64
	entries, _ := os.ReadDir(dir) // a missing store reads as empty
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return float64(n)
}

func runCtlChurn(o options) (*result, error) {
	work, err := os.MkdirTemp(o.WorkDir, "ctl-churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dirN := 0
	newDir := func() string {
		dirN++
		return filepath.Join(work, fmt.Sprintf("store%d", dirN))
	}

	// Set-up: construct daemons up to listen-ready.
	var setups stats.Samples
	for i := 0; i < churnSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		rig, err := startDaemon(o.Seed, newDir(), false)
		if err != nil {
			return nil, err
		}
		setups.Add(time.Since(t0).Seconds())
		if err := rig.stop(); err != nil {
			return nil, err
		}
	}

	episodeS := churnEpisode.Seconds() * o.Scale
	n := int(episodeS * churnRate)
	if n < churnHold+2 {
		n = churnHold + 2
	}
	ops := churnSchedule(o.Seed, n)
	episodes := int(o.Seconds / episodeS)
	if o.Trace || episodes < 1 {
		episodes = 1
	}
	var plain []*churnPhase
	for len(plain) < episodes {
		rig, err := startDaemon(o.Seed, newDir(), false)
		if err != nil {
			return nil, err
		}
		ph, err := rig.runChurn(ops, false)
		if err == nil {
			ph.heapMB = liveHeapMB()
		}
		if serr := rig.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		plain = append(plain, ph)
	}

	res := &result{Extra: metrics{}, Meta: map[string]any{
		"rate_rps": churnRate, "hold": churnHold, "connections": churnConns,
		"episodes": episodes, "episode_s": episodeS, "requests_per_episode": len(ops),
		"setups": churnSetups,
	}}
	var lat, late stats.Samples
	var unexcused, admitted, rejected, raced int
	for _, ph := range plain {
		for _, r := range ph.out {
			res.Attempted++
			if r.failed {
				res.Failed++
			}
			lat.Add(r.latMS)
			late.Add(r.lateMS)
		}
		unexcused += ph.unexcused
		admitted += int(ph.stats.Admitted)
		rejected += int(ph.stats.Rejected)
		raced += ph.raced
	}
	res.Meta["latency_samples"] = lat.Len()
	res.Meta["releases_raced"] = raced
	p50, p99 := lat.P(0.50), lat.P(0.99)
	res.Extra.set("api_p50_ms", p50, "ms")
	res.Extra.set("api_p99_ms", p99, "ms")
	res.Extra.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.Extra.set("audit_unexcused", float64(unexcused), "count")
	res.Extra.set("gen_late_p99_ms", late.P(0.99), "ms")
	res.Extra.set("admitted", float64(admitted), "count")
	res.Extra.set("rejected", float64(rejected), "count")

	if !o.Trace {
		med := func(f func(*churnPhase) float64) float64 { return col(plain, f).P(0.5) }
		m := metrics{}
		m.set("run_s", med(func(p *churnPhase) float64 { return p.tickS }), "s")
		m.set("cpu_s", med(func(p *churnPhase) float64 { return p.cost.cpuS }), "s")
		m.set("setup_s", setups.P(0.5), "s")
		m.set("alloc_mb", med(func(p *churnPhase) float64 { return p.cost.allocMB }), "MB")
		m.set("live_heap_mb", med(func(p *churnPhase) float64 { return p.heapMB }), "MB")
		m.set("sim_goodput_gbps", med(func(p *churnPhase) float64 {
			return float64(p.dataBytes) * 8 / p.paceS / 1e9
		}), "Gb/s")
		m.set("sim_rtt_p99_us", med(func(p *churnPhase) float64 { return p.rttP99 }), "us")
		m.set("sim_realtime_ratio", med(func(p *churnPhase) float64 { return p.simAdv.Seconds() / p.paceS }), "ratio")
		res.Metrics = m
		return res, nil
	}

	// Traced episode: a fresh daemon, the same schedule, wrappers on.
	trig, err := startDaemon(o.Seed, newDir(), true)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		trig.stop()
		return nil, err
	}
	traced, err := trig.runChurn(ops, true)
	selfNS, perr := prof.stop()
	if err == nil {
		err = perr
	}
	var m metrics
	if err == nil {
		m = trig.churnLayers(traced, selfNS)
		m.add("trace.overhead", traced.tickS/plain[0].tickS-1)
		m.add("ctl.api_p50_ms", p50)
		m.add("ctl.api_p99_ms", p99)
	}
	if serr := trig.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// churnLayers reads the traced phase's per-layer metrics. Call before
// stopping the rig.
func (r *daemonRig) churnLayers(ph *churnPhase, selfNS map[string]int64) metrics {
	m := newLayerMetrics()
	var late stats.Samples
	for _, o := range ph.out {
		late.Add(o.lateMS)
	}
	r.mw.mu.Lock()
	admit, release := r.mw.lat["/v1/admit"], r.mw.lat["/v1/release"]
	r.mw.mu.Unlock()
	m.add("ctl.server_admit_p50_ms", admit.P(0.5))
	m.add("ctl.server_admit_p99_ms", admit.P(0.99))
	m.add("ctl.server_release_p50_ms", release.P(0.5))
	m.add("ctl.server_release_p99_ms", release.P(0.99))
	m.add("ctl.engine_wait_p50_ms", ph.engineMS.P(0.5))
	m.add("ctl.engine_wait_p99_ms", ph.engineMS.P(0.99))
	if ticks := float64(ph.simAdv) / float64(r.d.Cfg.Quantum); ticks > 0 {
		m.add("ctl.tick_events", float64(ph.events)/ticks-tickMarkers)
	}
	m.add("ctl.admitted", float64(ph.stats.Admitted))
	m.add("ctl.rejected", float64(ph.stats.Rejected))
	m.add("ctl.reconcile_passes", float64(ph.stats.ReconcileLoops))
	m.add("ctl.wal_bytes", storeBytes(r.dir))
	m.add("gen.late_p99_ms", late.P(0.99))
	m.add("sim.events", float64(ph.events))
	m.add("sim.ns_per_event", ph.tickS*1e9/float64(ph.events))
	m.add("sim.events_per_s", float64(ph.events)/ph.tickS)
	m.add("gc.cycles", ph.cost.gcs)
	m.add("gc.pause_ms", ph.cost.pauseMS)
	m.add("trace.cpu_s", ph.cost.cpuS)
	m.add("audit.unexcused", float64(ph.unexcused))
	m.setSelf(selfNS)
	r.d.Do(func() {
		f := r.d.UF
		m.add("sim.peak_pending", float64(r.d.Eng.Stats().PeakPending))
		fc, fns := sumAcc(r.tracer.fwd)
		hc, hns := sumAcc(r.tracer.hdl)
		m.add("dp.deliveries", float64(hc))
		m.add("dp.drops", float64(f.Net.TotalDrops))
		m.add("dp.max_queue_kb", float64(f.MaxQueueBytes())/1024)
		m.add("c.forward_calls", float64(fc))
		m.add("c.forward_ns", ratio(fns, fc))
		m.add("e.handle_calls", float64(hc))
		m.add("e.handle_ns", ratio(hns, hc))
		fabricCounters(m, f)
		total, dropped := r.d.Reg.TraceTotals()
		m.add("tel.trace_events", float64(total))
		m.add("tel.trace_dropped", float64(dropped))
		var obs uint64
		for _, h := range r.d.Reg.Snapshot().Histograms {
			obs += h.Count
		}
		m.add("tel.hist_observations", float64(obs))
		m.add("audit.excused", float64(r.d.Audit.Excused()))
	})
	var self float64
	for _, l := range profLayers {
		self += m[l+".self_s"].Value
	}
	m.add("prof.coverage", self/ph.cost.cpuS)
	return m
}
