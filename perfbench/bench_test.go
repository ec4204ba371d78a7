package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"ufab/internal/sim"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke tests check
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs every workload at a tiny scale, plain and
// traced, and checks that the last output line names every declared
// metric with its declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{Workload: wl.Name, Seed: 3, Seconds: 0.2, Trace: trace, WorkDir: t.TempDir(), Scale: 0.05}
			res, err := workloads[wl.Name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			if err := writeResult(w, o, res); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var last struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatal(err)
			}
			if !last.Correct || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", wl.Name, trace, last.Correct, last.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s",
						wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestPerturbedDigestTripsGate changes one pair's delivered bytes after a
// run and checks that the fingerprint moves and the identity rule fails.
func TestPerturbedDigestTripsGate(t *testing.T) {
	r, err := buildBulkPerm(5, 1, 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	r.f.Eng.RunUntil(r.horizon)
	want := r.outcome().digest
	if again := r.outcome().digest; again != want {
		t.Fatalf("digest not stable: %s vs %s", want, again)
	}
	r.f.Flows[len(r.f.Flows)/2].Pair.Delivered++
	got := r.outcome().digest
	var ge *errGate
	if err := sameDigest(want, got); !errors.As(err, &ge) {
		t.Fatalf("perturbed digest %s vs %s passed the gate (err %v)", got, want, err)
	}
}

// TestChurnScheduleDeterministic checks that the ctl-churn schedule is a
// pure function of the seed and releases id i-H right after admitting i.
func TestChurnScheduleDeterministic(t *testing.T) {
	a, b := churnSchedule(7, 300), churnSchedule(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, churnSchedule(8, 300)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 300 {
		t.Fatalf("schedule has %d ops, want 300", len(a))
	}
	var lastAdmit int32
	for i, op := range a {
		if op.Admit {
			lastAdmit = op.ID
			continue
		}
		if op.ID != lastAdmit-churnHold || !a[i-1].Admit {
			t.Fatalf("op %d releases %d after admitting %d", i, op.ID, lastAdmit)
		}
	}
}

// TestReleaseGate checks that a release answered against its admit's
// decision trips the gate only when it was sent after the admit's answer.
func TestReleaseGate(t *testing.T) {
	ops := churnSchedule(9, churnHold+2)
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	out := make([]reqOutcome, len(ops))
	for i, op := range ops {
		out[i] = reqOutcome{status: http.StatusOK, accepted: true, sent: at(10 * i), answered: at(10*i + 5)}
		if !op.Admit {
			out[i].accepted = false
		}
	}
	rel := len(ops) - 1 // releases id 1, admitted by op 0
	if ops[rel].Admit || ops[rel].K != 0 {
		t.Fatalf("op %d is not the release of the first admit: %+v", rel, ops[rel])
	}
	if acc, relN, raced, err := checkReleases(ops, out); err != nil || acc != churnHold+1 || relN != 1 || raced != 0 {
		t.Fatalf("consistent answers: accepted %d released %d raced %d err %v", acc, relN, raced, err)
	}
	out[rel].status = http.StatusNotFound
	var ge *errGate
	if _, _, _, err := checkReleases(ops, out); !errors.As(err, &ge) {
		t.Fatalf("404 for a release of an accepted id passed the gate (err %v)", err)
	}
	// The same answer to a release sent before the admit was answered is
	// counted as raced.
	out[0].answered = out[rel].sent.Add(time.Millisecond)
	if _, relN, raced, err := checkReleases(ops, out); err != nil || relN != 0 || raced != 1 {
		t.Fatalf("raced release: released %d raced %d err %v", relN, raced, err)
	}
}

// TestLayerOf pins the attribution rules of the profile reader.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "ufab/internal/dataplane.(*Network).enqueue"}, "mem"},
		{[]string{"runtime.memmove", "ufab/internal/dataplane.(*Network).enqueue"}, "dp"},
		{[]string{"runtime.osyield", "runtime.schedule", "runtime.Gosched", "ufab/internal/sim.(*Sharded).runEpoch"}, "sched"},
		{[]string{"ufab/internal/bloom.(*Filter).Add", "ufab/internal/ufabc.(*Agent).OnForward"}, "c"},
		{[]string{"time.Now", "main.(*timeHandler).HandlePacket", "ufab/internal/dataplane.(*Network).arrive"}, "bench"},
		{[]string{"sort.Float64s", "ufab/internal/stats.(*Samples).P"}, "fab"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
