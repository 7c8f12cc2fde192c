package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro"
)

// bodies renders every batch of a run's plan for seed.
func bodies(t *testing.T, w *workload, seed uint64) [][]byte {
	t.Helper()
	r := newRunner(w, w.plan(1, true), seed, "", "")
	r.planPhases()
	var out [][]byte
	for _, ph := range r.phases {
		r.g.render(ph.batches)
		for _, b := range ph.batches {
			out = append(out, b.body)
		}
	}
	return out
}

// TestHistTrafficShared pins what makes routed-hist comparable with
// direct-hist: byte-identical traffic for a seed.
func TestHistTrafficShared(t *testing.T) {
	direct, _ := findWorkload("direct-hist")
	routed, _ := findWorkload("routed-hist")
	a, b := bodies(t, direct, 5), bodies(t, routed, 5)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d batches", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("batch %d differs", i)
		}
	}
}

func TestGeneratorSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := bodies(t, w, 7), bodies(t, w, 7), bodies(t, w, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d batches for one seed", w.name, len(a), len(b))
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: batch %d differs between two runs of seed 7", w.name, i)
			}
			if i < len(c) && !bytes.Equal(a[i], c[i]) {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 give identical bodies", w.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness in step: the
// same workloads, and the same metric names and units in each list.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(list string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, harness %d", list, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, harness %s %s", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestCompareRowIsBitExact(t *testing.T) {
	p := &repro.Point{T: 3, Score: 0.1, Kappa: math.NaN()}
	p.Interval.Lo, p.Interval.Up = 0.05, 0.2
	want := &expected{stream: "s0001", bagT: 12, point: p}
	score, lo, up, tt := p.Score, p.Interval.Lo, p.Interval.Up, p.T
	row := resultRow{Stream: "s0001", BagT: 12, T: &tt, Score: &score, Lo: &lo, Up: &up}
	if err := compareRow(&row, want); err != nil {
		t.Fatalf("identical row rejected: %v", err)
	}
	bumped := math.Nextafter(score, 1)
	row.Score = &bumped
	if compareRow(&row, want) == nil {
		t.Fatal("a one-ulp score difference passed the check")
	}
	row.Score = &score
	kappa := 0.0
	row.Kappa = &kappa
	if compareRow(&row, want) == nil {
		t.Fatal("a kappa on a row whose reference kappa is undefined passed the check")
	}
}

// TestCheckStreams pins the post-restart census: every acknowledged
// stream listed once with its acknowledged count, unless a bounded pool
// may have spilled some of them.
func TestCheckStreams(t *testing.T) {
	w, _ := findWorkload("durable-kmeans")
	c := &checker{g: newGenerator(w, 1), clock: map[int32]int{0: 12, 1: 11}}
	both := [][]byte{[]byte(`{"streams":[{"id":"s0000","pushed":12}]}`), []byte(`{"streams":[{"id":"s0001","pushed":11}]}`)}
	missing := [][]byte{[]byte(`{"streams":[{"id":"s0000","pushed":12}]}`)}
	twice := [][]byte{both[0], both[0], both[1]}
	short := [][]byte{both[0], []byte(`{"streams":[{"id":"s0001","pushed":10}]}`)}
	for _, tc := range []struct {
		name   string
		pages  [][]byte
		pooled bool
		ok     bool
	}{
		{"all listed", both, false, true},
		{"one missing", missing, false, false},
		{"one missing, pooled", missing, true, true},
		{"listed twice", twice, false, false},
		{"count short", short, true, false},
	} {
		if err := c.checkStreams(tc.pages, tc.pooled); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// TestSmoke runs every workload at tiny sizes against a bagcpd built
// from this checkout: real processes, the output check, the traced run
// and the kill/restart recovery path.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bagcpd and starts processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bagcpd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/bagcpd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bagcpd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 1, trace: trace, smoke: true, bagcpd: bin, out: dir}
			res, err := benchmark(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			s := res.summary
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 || len(s.Metrics) != len(want) {
				t.Fatalf("%s trace=%t: summary %+v", w.name, trace, s)
			}
			if v := s.Metrics["acked_ratio"].Value; !trace && v != 1 {
				t.Errorf("%s: acked_ratio %v", w.name, v)
			}
		}
	}
}
