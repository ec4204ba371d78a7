// Command perfbench is the repository's benchmark. It runs one of three
// workloads built from the public fabric and control-plane API, checks that
// the simulated results are correct and reproducible, and prints every
// metric with its name and unit.
//
//	perfbench --workload bulk-perm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With --trace 1 the same workload runs once plain and
// then traced — seam wrappers around μFAB-C, μFAB-E and the HTTP handler,
// plus a CPU profile attributed by package — and the metrics are the
// per-layer breakdown. The last line of standard output is the result
// object; the line before it is the full record (host fingerprint, run
// metadata, the correctness digest and every measured quantity).
//
// METRICS.md maps every per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"ufab/internal/stats"
)

// metric is one reported quantity.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is what a workload run hands back: the metrics a harness reads,
// the operation counts, and the record of everything else measured.
type result struct {
	Attempted int64
	Failed    int64
	// Metrics are the end-to-end metrics (plain run) or the per-layer
	// metrics (traced run).
	Metrics metrics
	// Extra holds measured quantities that are not in Metrics: the
	// workload-specific fidelity figures and counts the record keeps.
	Extra metrics
	// Meta is the run metadata (workers, horizon or rate, repeats,
	// request and sample counts).
	Meta map[string]any
	// Digest fingerprints the simulated outcome (fabric workloads).
	Digest string
}

// options are the command-line settings shared by every workload.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string
	// Scale shrinks the fabric horizons and the request schedule; the
	// self-tests set a tiny scale. The command always runs at 1.
	Scale float64
}

// errGate marks a correctness-gate failure: the run's outputs are wrong.
type errGate struct{ msg string }

func (e *errGate) Error() string { return "correctness gate: " + e.msg }

func gateFail(format string, args ...any) error {
	return &errGate{fmt.Sprintf(format, args...)}
}

// workloads lists the runnable workloads by name.
var workloads = map[string]func(options) (*result, error){
	"bulk-perm": func(o options) (*result, error) { return runFabric(bulkPerm, o) },
	"msg-mix":   func(o options) (*result, error) { return runFabric(msgMix, o) },
	"ctl-churn": runCtlChurn,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: bulk-perm, msg-mix or ctl-churn")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.Seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run with per-layer metrics")
	flag.StringVar(&o.WorkDir, "workdir", os.TempDir(), "directory for the ctl-churn store")
	flag.Parse()
	o.Scale = 1
	o.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	run := workloads[o.Workload]
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.Workload)
		os.Exit(2)
	}
	if o.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.Workload, err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := writeResult(w, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write result: %v\n", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// writeResult prints the full record and then, as the last line, the
// result object a harness reads.
func writeResult(w *bufio.Writer, o options, res *result) error {
	meta := map[string]any{"workload": o.Workload, "seed": o.Seed, "trace": o.Trace,
		"seconds": o.Seconds, "scale": o.Scale}
	for k, v := range res.Meta {
		meta[k] = v
	}
	record := map[string]any{
		"host":      hostFingerprint(),
		"run":       meta,
		"digest":    res.Digest,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
		"extra":     res.Extra,
	}
	rec, err := json.Marshal(map[string]any{"record": record})
	if err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n%s\n", rec, last)
	return nil
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

// probeCost reads the process's CPU time and allocation counters at a phase
// boundary.
type probeCost struct {
	wall   time.Time
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	pauses uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCost() probeCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probeCost{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc,
		gcs: ms.NumGC, pauses: ms.PauseTotalNs}
}

// phaseCost is the host cost of one measured phase.
type phaseCost struct {
	wallS, cpuS, allocMB float64
	gcs                  float64
	pauseMS              float64
}

func since(a probeCost) phaseCost {
	b := readCost()
	return phaseCost{
		wallS:   b.wall.Sub(a.wall).Seconds(),
		cpuS:    (b.cpu - a.cpu).Seconds(),
		allocMB: float64(b.alloc-a.alloc) / 1e6,
		gcs:     float64(b.gcs - a.gcs),
		pauseMS: float64(b.pauses-a.pauses) / 1e6,
	}
}

// liveHeapMB forces a collection and returns the live heap. Callers keep
// the system under test reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// col collects field f of every element of xs.
func col[T any](xs []T, f func(T) float64) *stats.Samples {
	var s stats.Samples
	for _, x := range xs {
		s.Add(f(x))
	}
	return &s
}

func init() {
	// The benchmark measures the collector as the program configures it;
	// a GOGC inherited from the environment would change every allocation
	// figure.
	debug.SetGCPercent(100)
}
