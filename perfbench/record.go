package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// runRecord is everything one run measured, written as JSON so a
// reviewer can see why a number moved.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Machine    machine            `json:"machine"`
	Deployment string             `json:"deployment"`
	Plan       map[string]any     `json:"plan"`
	Phases     []phaseRecord      `json:"phases"`
	Samples    map[string]any     `json:"samples"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer"`
	Counters   map[string]float64 `json:"metrics_deltas"`
	Check      checkRecord        `json:"check"`
	SpanFile   string             `json:"span_file,omitempty"`

	attempted, failed int
}

type checkRecord struct {
	Rows   int `json:"rows_compared"`
	Scored int `json:"scored_rows_compared"`
}

// phaseRecord counts one execution of one phase.
type phaseRecord struct {
	Name        string  `json:"name"`
	Run         int     `json:"run"`
	Batches     int     `json:"batches_sent"`
	BatchesOK   int     `json:"batches_acked"`
	BatchFailed int     `json:"batches_failed"`
	Rows        int     `json:"rows_sent"`
	RowsAcked   int     `json:"rows_acked"`
	WallS       float64 `json:"wall_s"`
}

// ackedRows counts the rows of a response that carry no error.
func ackedRows(o *outcome) int {
	if !o.ok() {
		return 0
	}
	return bytes.Count(o.body, []byte{'\n'}) - bytes.Count(o.body, []byte(`"error":`))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean averages xs without its smallest and largest values.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	total := 0.0
	for _, x := range s {
		total += x
	}
	return ratio(total, float64(len(s)))
}

// percentile is the nearest-rank (ceil) percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// failedLatencyMs stands in for the latency of a batch that was not
// fully acknowledged: it misses any latency limit (the client timeout).
const failedLatencyMs = 60_000

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func (r *runner) record(o options, tr *traced) *runRecord {
	w := r.w
	rec := &runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Machine: thisMachine(), Deployment: r.dep.String(),
		Plan: map[string]any{
			"streams": w.streams, "rows_per_batch": w.rowsPer, "connections": conns,
			"setup_runs": r.p.setupRuns, "segments": r.p.segments,
			"closed_batches_per_conn_per_segment": r.p.closedPerConn,
			"open_batches_per_segment":            r.p.openBatches,
			"open_batches_per_s":                  r.p.openBatchPerS,
			"recover_cycles":                      r.p.recoverCycles,
			"recover_batches":                     r.p.recoverBatches,
			"replicates":                          w.replicates,
		},
		EndToEnd: map[string]float64{},
		PerLayer: map[string]float64{},
		Counters: map[string]float64{},
	}
	sentRows, ackRows := 0, 0
	for _, ph := range r.phases {
		for run, outs := range ph.runs {
			pr := phaseRecord{Name: ph.name, Run: run, Batches: len(outs), WallS: ph.walls[run].Seconds()}
			for i := range outs {
				n := len(ph.batches[i].rows)
				a := ackedRows(&outs[i])
				pr.Rows += n
				pr.RowsAcked += a
				if a == n {
					pr.BatchesOK++
				} else {
					pr.BatchFailed++
				}
			}
			rec.attempted += pr.Batches
			rec.failed += pr.BatchFailed
			sentRows += pr.Rows
			ackRows += pr.RowsAcked
			rec.Phases = append(rec.Phases, pr)
		}
	}

	// Closed loop: median segment rate and CPU per bag.
	var rates, cpuPerBag []float64
	closedAcked := 0
	for s, ph := range r.byKind("closed") {
		acked := 0
		for i := range ph.last() {
			acked += ackedRows(&ph.last()[i])
		}
		closedAcked += acked
		rates = append(rates, float64(acked)/ph.walls[0].Seconds())
		cpuPerBag = append(cpuPerBag, ratio(r.closedCPU[s], float64(acked))*1e6)
	}
	// Open loop: latency from the due time, lateness of the sender. The
	// p99 is the median of the segments' p99s: the box's neighbours steal
	// CPU in bursts of seconds, and one burst sets a pooled p99 alone.
	var lat, late []float64
	var segLat [][]float64
	for _, ph := range r.byKind("open") {
		var seg []float64
		for i := range ph.last() {
			out := &ph.last()[i]
			late = append(late, ms(out.sent.Sub(out.due)))
			if ackedRows(out) == len(ph.batches[i].rows) {
				seg = append(seg, ms(out.done.Sub(out.due)))
			} else {
				seg = append(seg, failedLatencyMs)
			}
		}
		lat = append(lat, seg...)
		segLat = append(segLat, seg)
	}
	e := rec.EndToEnd
	e["bags_per_s"] = median(rates)
	e["push_p50_ms"] = percentile(lat, 0.50)
	var segP99 []float64
	for _, seg := range segLat {
		segP99 = append(segP99, percentile(seg, 0.99))
	}
	e["push_p99_ms"] = median(segP99)
	e["cpu_us_per_bag"] = median(cpuPerBag)
	e["rss_peak_mb"] = r.rssMB
	e["acked_ratio"] = ratio(float64(ackRows), float64(sentRows))
	e["setup_s"] = median(r.setupS)
	// Per-cycle recovery times are bimodal on a shared box (a restore
	// takes one of two durations about 30% apart), and a median of a
	// bimodal sample flips between the modes from run to run.
	e["recover_s"] = trimmedMean(r.recoverS)
	rec.Samples = map[string]any{
		"closed_segment_bags_per_s": rates,
		"closed_cpu_s":              r.closedCPU,
		"closed_cpu_us_per_bag":     cpuPerBag,
		"closed_acked_bags":         closedAcked,
		"open_latency_samples":      len(lat),
		"open_segment_p99_ms":       segP99,
		"open_pooled_p99_ms":        percentile(lat, 0.99),
		"open_latency_ms":           segLat,
		"open_late_ms_p50":          percentile(late, 0.50),
		"open_late_ms_p99":          percentile(late, 0.99),
		"open_late_ms_max":          percentile(late, 1),
		"setup_s":                   r.setupS,
		"recover_s":                 r.recoverS,
		"oplog_replay_rows_per_s":   r.replayRate,
		"drain_restart_s":           r.drainRestartS,
		"cpu_steal_s":               r.stealS,
	}

	// Per-layer counts: /metrics deltas over the timed segments. Behind a
	// router the entry point's page carries the fleet sums.
	d := func(name string, frag ...string) float64 { return delta(r.before, r.after, name, frag...) }
	for _, k := range sortedKeys(r.after) {
		if v := r.after[k] - r.before[k]; v != 0 {
			rec.Counters[k] = v
		}
	}
	bags, batches := d("bagcpd_push_bags_total"), d("bagcpd_push_batches_total")
	rejected := d("bagcpd_push_rejected_total")
	hits, misses := d("bagcpd_push_solver_cache_hits_total"), d("bagcpd_push_solver_cache_misses_total")
	// Every stream's window is full during the timed segments, so each
	// push solves one EMD per retained window bag.
	solves := bags * float64(w.window()-1)
	l := rec.PerLayer
	l["server.rejected_ratio"] = ratio(rejected, batches+rejected)
	l["router.members_per_batch"] = ratio(d("bagcpd_router_forwarded_batches_total"), d("bagcpd_router_push_batches_total"))
	l["emd.solves_per_bag"] = ratio(solves, bags)
	l["emd.pivots_per_solve"] = ratio(d("bagcpd_push_solver_pivots_total"), solves)
	l["emd.ground_evals_per_bag"] = ratio(d("bagcpd_push_solver_ground_evals_total"), bags)
	l["emd.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["oplog.fsyncs_per_batch"] = ratio(d("bagcpd_oplog_fsyncs_total"), batches)
	l["oplog.bytes_per_row"] = ratio(d("bagcpd_oplog_bytes_total"), d("bagcpd_oplog_records_total"))
	l["oplog.replay_rows_per_s"] = median(r.replayRate)
	l["pool.spills_per_batch"] = ratio(d("bagcpd_pool_spills_total"), batches)
	l["pool.faultins_per_batch"] = ratio(d("bagcpd_pool_faultins_total"), batches)
	l["runtime.gc_per_kbag"] = ratio(d("bagcpd_gc_runs_total"), bags/1000)
	l["loadgen.late_ms_p99"] = percentile(late, 0.99)
	if tr != nil {
		for k, v := range tr.layerTimes(w) {
			l[k] = v
		}
		rec.Samples["traced_batches"] = tr.batches
		rec.Samples["traced_entry_s"] = tr.entry.Seconds()
		rec.Samples["plain_entry_s"] = tr.plainEntry.Seconds()
		rec.Samples["spans"] = len(tr.spans)
	}
	return rec
}

// layerRuns reports whether the layer a per-layer metric belongs to runs
// in this workload; metrics of absent layers read 0.
func (rec *runRecord) layerRuns(metric string) bool {
	w, _ := findWorkload(rec.Workload)
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "router":
		return w.routed
	case "oplog":
		return w.oplog
	case "pool":
		return w.poolMax > 0
	}
	return true
}

// lines renders the human-readable part of the report.
func (rec *runRecord) lines(defs []metricDef, values map[string]float64) []string {
	m := rec.Machine
	out := []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%t", rec.Workload, rec.Seed, rec.Seconds, rec.Trace),
		fmt.Sprintf("machine: nproc=%d gomaxprocs=%d %s cpu=%q", m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel),
	}
	for _, ph := range rec.Phases {
		out = append(out, fmt.Sprintf("phase %-10s run %d: batches sent=%d acked=%d failed=%d rows=%d/%d wall=%.3fs",
			ph.Name, ph.Run, ph.Batches, ph.BatchesOK, ph.BatchFailed, ph.RowsAcked, ph.Rows, ph.WallS))
	}
	for _, k := range sortedKeys(rec.Samples) {
		if k == "open_latency_ms" {
			continue // every batch's latency: the record file only
		}
		out = append(out, fmt.Sprintf("sample %s = %v", k, rec.Samples[k]))
	}
	out = append(out, fmt.Sprintf("check: %d rows compared bit for bit, %d scored", rec.Check.Rows, rec.Check.Scored))
	for _, d := range defs {
		note := ""
		if !rec.layerRuns(d.name) {
			note = " (layer not in this workload)"
		}
		out = append(out, fmt.Sprintf("metric %-32s %14.6g %s%s", d.name, values[d.name], d.unit, note))
	}
	return out
}
