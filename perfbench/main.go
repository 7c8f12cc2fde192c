// Command perfbench is the repository's benchmark. It builds seeded
// NDJSON push traffic, drives real bagcpd processes with it (one
// -serve, a -serve with oplog and bounded pool, or two members behind a
// -route), checks every scored row bit for bit against an in-process
// reference engine, and prints the end-to-end metrics. With -trace 1 it
// also replays part of the traffic through an in-process copy of the
// stack and prints per-layer metrics from spans and /metrics deltas.
//
// Run it from the repository root through perfbench/run.sh, which builds
// bagcpd and this command into .bench_build/ first:
//
//	bash perfbench/run.sh --workload direct-hist --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits 1
// without printing it. Each run also writes a JSON run record (machine,
// every phase's batch counts, raw samples behind each metric) under
// .bench_build/records/, and with -trace 1 the spans under
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"bags_per_s", "1/s"},
	{"push_p50_ms", "ms"},
	{"push_p99_ms", "ms"},
	{"cpu_us_per_bag", "us"},
	{"rss_peak_mb", "MB"},
	{"acked_ratio", "ratio"},
	{"setup_s", "s"},
	{"recover_s", "s"},
}

var perLayer = []metricDef{
	{"server.self_ms_per_batch", "ms"},
	{"server.self_share", "ratio"},
	{"server.rejected_ratio", "ratio"},
	{"router.self_ms_per_batch", "ms"},
	{"router.fanout_wait_ms_per_batch", "ms"},
	{"router.members_per_batch", "count"},
	{"core.apply_ms_per_batch", "ms"},
	{"core.busy_ratio", "ratio"},
	{"signature.us_per_bag", "us"},
	{"emd.us_per_bag", "us"},
	{"emd.solves_per_bag", "count"},
	{"emd.pivots_per_solve", "count"},
	{"emd.ground_evals_per_bag", "count"},
	{"emd.cache_hit_ratio", "ratio"},
	{"bootstrap.us_per_bag", "us"},
	{"bootstrap.ns_per_replicate", "ns"},
	{"oplog.enqueue_us_per_row", "us"},
	{"oplog.sync_ms_per_batch", "ms"},
	{"oplog.fsyncs_per_batch", "count"},
	{"oplog.bytes_per_row", "B"},
	{"oplog.replay_rows_per_s", "1/s"},
	{"pool.spills_per_batch", "count"},
	{"pool.faultins_per_batch", "count"},
	{"pool.faultin_ms", "ms"},
	{"runtime.gc_per_kbag", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	bagcpd   string
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives byte-identical traffic")
	flag.IntVar(&o.seconds, "seconds", 20, "approximate length of the timed closed- and open-loop phases")
	flag.IntVar(&trace, "trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	flag.StringVar(&o.bagcpd, "bagcpd", filepath.Join(".bench_build", "bagcpd"), "bagcpd binary built from the tree under test")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for run records, spans and scratch state")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	o.trace = trace == 1
	res, err := benchmark(o)
	if err != nil {
		fatal(err)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}
	blob, err := json.Marshal(res.summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// metricValue is one reported value with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	report  []string
	summary summary
	record  *runRecord
}

// machine describes the box a run measured.
type machine struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func benchmark(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1")
	}
	if _, err := os.Stat(o.bagcpd); err != nil {
		return nil, fmt.Errorf("bagcpd binary: %w", err)
	}
	work, err := workDir(o.out, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	p := w.plan(o.seconds, o.smoke)
	r := newRunner(w, p, o.seed, o.bagcpd, work)
	r.planPhases()
	t0 := time.Now()
	if err := r.runUntraced(); err != nil {
		return nil, err
	}
	stepS := map[string]float64{"untraced": time.Since(t0).Seconds()}

	var tr *traced
	if o.trace {
		t0 := time.Now()
		tr, err = runTraced(w, r.g, r.dseed, work, r.phases[0].batches, r.byKind("closed")[0].batches)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		stepS["traced"] = time.Since(t0).Seconds()
	}
	t0 = time.Now()

	ck, err := newChecker(w, r.g, r.dseed)
	if err != nil {
		return nil, err
	}
	defer ck.close()
	if err := ck.checkPhases(r.phases); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	if tr != nil {
		for k, outs := range tr.outs {
			for b, out := range outs {
				if err := ck.compare(b, &out); err != nil {
					return nil, fmt.Errorf("output check (traced run, stack %d): %w", k, err)
				}
			}
		}
	}
	if err := ck.checkStreams(r.streamPages, r.dep.poolMax > 0); err != nil {
		return nil, fmt.Errorf("output check after restart: %w", err)
	}
	if ck.scored == 0 {
		return nil, fmt.Errorf("output check: no scored rows to compare")
	}

	stepS["check"] = time.Since(t0).Seconds()
	rec := r.record(o, tr)
	rec.Samples["step_s"] = stepS
	rec.Check = checkRecord{Rows: ck.rows, Scored: ck.scored}
	res := &result{record: rec, summary: summary{Correct: true, Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metricValue{}}}
	defs, values := endToEnd, rec.EndToEnd
	if o.trace {
		defs, values = perLayer, rec.PerLayer
		spanPath := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.ndjson", w.name, o.seed))
		if err := writeSpans(spanPath, tr.spans); err != nil {
			return nil, err
		}
		rec.SpanFile = spanPath
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.summary.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	traceFlag := 0
	if o.trace {
		traceFlag = 1
	}
	recPath := filepath.Join(o.out, "records", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, traceFlag))
	if err := writeJSON(recPath, rec); err != nil {
		return nil, err
	}
	res.report = rec.lines(defs, values)
	res.report = append(res.report, "record: "+recPath)
	return res, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// sortedKeys returns m's keys in order, for stable report lines.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
