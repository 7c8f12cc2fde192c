package server

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/emd"
	"repro/internal/obs"
	"repro/internal/oplog"
)

// latencyWindow is the number of recent batch latencies the quantile
// summary is computed over. A fixed window keeps the scrape O(window)
// and the memory bounded regardless of traffic.
const latencyWindow = 1024

// metrics holds the server's handles into its obs.Registry. The
// registry renders the whole /metrics exposition (the same code path
// the router uses), and every series the pre-registry hand-rolled
// renderer emitted is registered here under the same name, type and
// sample format — integer counters render with no decimal point, the
// engine-info gauge carries the statistic label, and the batch-latency
// summary keeps its 1024-observation window and p50/p90/p99 points
// (now ceil-rank; the old floor-rank selection under-reported tail
// quantiles on small windows).
type metrics struct {
	reg *obs.Registry

	batches         *obs.Counter // push batches accepted
	bags            *obs.Counter // bags ingested
	points          *obs.Counter // inspection points produced
	rowErrors       *obs.Counter // per-row push errors
	rejected        *obs.Counter // batches refused with 429
	evictions       *obs.Counter // idle streams evicted (discard mode)
	snapshots       *obs.Counter // snapshots served (full and delta)
	restores        *obs.Counter // restores applied
	extractions     *obs.Counter // streams extracted for migration
	adoptions       *obs.Counter // streams adopted from migration envelopes
	respWriteErrors *obs.Counter // response rows dropped on client write failure
	inflight        *obs.Gauge   // push batches currently executing
	batchLat        *obs.Summary // push batch latency window

	// Registered by enablePool when a spill store is configured.
	spills      *obs.Counter // streams spilled to the on-disk store
	faultins    *obs.Counter // spilled streams faulted back in
	spillErrors *obs.Counter // failed spills (stream stayed resident)

	// Registered by enableOplog when the write-ahead oplog is configured.
	oplogFsync      *obs.Histogram // group-commit fsync latency
	oplogSyncErrors *obs.Counter   // batches refused: records not durable
}

// maxRetryAfterSeconds caps the derived 429 hint: past a minute the
// number stops being advice and starts being an outage announcement.
const maxRetryAfterSeconds = 60

// retryAfterSeconds derives the 429 Retry-After hint from the recent
// batch-latency window: the ceiling of the p99 batch duration, floored
// at 1s and capped at maxRetryAfterSeconds. Under light load it stays
// at the old hardcoded 1; when batches take multiple seconds, a client
// told to come back in 1s would only feed the congestion. The router's
// max-across-members propagation consumes the same integer form.
func (m *metrics) retryAfterSeconds() int {
	qs, count, _ := m.batchLat.Quantiles()
	if count == 0 || len(qs) == 0 {
		return 1
	}
	secs := int(math.Ceil(qs[len(qs)-1]))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// enablePool registers the bounded-pool residency series. peak is the
// server-maintained high-water mark of concurrently resident streams —
// the RSS proxy the spill acceptance tests gate on.
func (m *metrics) enablePool(eng *core.Engine, spilled func() int, peak *atomic.Int64) {
	m.reg.GaugeFunc("bagcpd_pool_resident", "Resident (in-RAM) detector streams.", func() float64 {
		return float64(eng.Len())
	})
	m.reg.GaugeFunc("bagcpd_pool_resident_peak", "High-water mark of resident detector streams.", func() float64 {
		return float64(peak.Load())
	})
	m.reg.GaugeFunc("bagcpd_pool_spilled", "Streams paged out to the on-disk stream store.", func() float64 {
		return float64(spilled())
	})
	m.spills = m.reg.Counter("bagcpd_pool_spills_total", "Streams spilled to the on-disk stream store.")
	m.faultins = m.reg.Counter("bagcpd_pool_faultins_total", "Spilled streams faulted back in on push.")
	m.spillErrors = m.reg.Counter("bagcpd_pool_spill_errors_total", "Failed spill attempts (the stream stayed resident).")
}

// enableOplog registers the write-ahead-log series, sampling the log's
// own census at scrape time. The fsync histogram is created separately
// (oplogFsyncHistogram) because the log needs its Observe before Open.
func (m *metrics) enableOplog(l *oplog.Log) {
	st := func(f func(oplog.Stats) uint64) func() uint64 {
		return func() uint64 { return f(l.Stats()) }
	}
	m.reg.CounterFunc("bagcpd_oplog_records_total", "Oplog records appended.", st(func(s oplog.Stats) uint64 { return s.Records }))
	m.reg.CounterFunc("bagcpd_oplog_bytes_total", "Oplog bytes appended.", st(func(s oplog.Stats) uint64 { return s.AppendedBytes }))
	m.reg.CounterFunc("bagcpd_oplog_fsyncs_total", "Oplog group-commit fsyncs.", st(func(s oplog.Stats) uint64 { return s.Fsyncs }))
	m.reg.CounterFunc("bagcpd_oplog_rotations_total", "Oplog segment rotations.", st(func(s oplog.Stats) uint64 { return s.Rotations }))
	m.reg.CounterFunc("bagcpd_oplog_truncated_bytes_total", "Torn-tail bytes truncated at oplog open.", st(func(s oplog.Stats) uint64 { return s.TruncatedBytes }))
	m.reg.CounterFunc("bagcpd_oplog_checkpoints_total", "Oplog checkpoints written.", st(func(s oplog.Stats) uint64 { return s.Checkpoints }))
	m.reg.CounterFunc("bagcpd_oplog_compacted_segments_total", "Oplog segments deleted by checkpoint compaction.", st(func(s oplog.Stats) uint64 { return s.CompactedSegments }))
	m.reg.GaugeFunc("bagcpd_oplog_segments", "Current oplog segment count (including the active one).", func() float64 {
		return float64(l.Stats().Segments)
	})
	m.reg.GaugeFunc("bagcpd_oplog_bytes_since_checkpoint", "Oplog bytes appended since the last checkpoint (auto-checkpoint trigger).", func() float64 {
		return float64(l.BytesSinceCheckpoint())
	})
	m.oplogSyncErrors = m.reg.Counter("bagcpd_oplog_sync_errors_total", "Push batches refused because their oplog records could not be made durable.")
}

// oplogFsyncHistogram creates (once) and returns the fsync latency
// histogram, so its Observe can be handed to oplog.Open as the
// FsyncObserver before enableOplog runs.
func (m *metrics) oplogFsyncHistogram() *obs.Histogram {
	if m.oplogFsync == nil {
		m.oplogFsync = m.reg.Histogram("bagcpd_oplog_fsync_seconds", "Oplog data-file fsync latency (group commit).", obs.FsyncBuckets)
	}
	return m.oplogFsync
}

// newMetrics builds the server's registry: the serving-tier series in
// the order the pre-registry renderer emitted them, then the engine's
// stage instrumentation (Engine.Instrument adds the
// bagcpd_push_stage_seconds histograms and solver counters, labeled by
// statistic), then the process runtime gauges.
func newMetrics(eng *core.Engine) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	// Info-style gauge: the engine's per-inspection statistic as a label.
	reg.GaugeVec("bagcpd_engine_info",
		"Engine configuration identity (constant 1; statistic is the registry name in the snapshot fingerprint).",
		"statistic").With(eng.StatisticName()).Set(1)
	reg.GaugeFunc("bagcpd_streams_open", "Open detector streams.", func() float64 {
		return float64(eng.Stats().Open)
	})
	reg.GaugeFunc("bagcpd_detector_pool_free", "Warm detectors waiting in the recycle pool.", func() float64 {
		return float64(eng.Stats().PooledFree)
	})
	m.inflight = reg.Gauge("bagcpd_inflight_batches", "Push batches currently executing.")
	m.batches = reg.Counter("bagcpd_push_batches_total", "Push batches accepted.")
	m.bags = reg.Counter("bagcpd_push_bags_total", "Bags ingested.")
	m.points = reg.Counter("bagcpd_push_points_total", "Inspection points produced.")
	m.rowErrors = reg.Counter("bagcpd_push_row_errors_total", "Per-row push errors.")
	m.rejected = reg.Counter("bagcpd_push_rejected_total", "Push batches refused with 429 (back-pressure).")
	m.evictions = reg.Counter("bagcpd_evictions_total", "Idle streams evicted.")
	m.snapshots = reg.Counter("bagcpd_snapshots_total", "Engine snapshots served.")
	m.restores = reg.Counter("bagcpd_restores_total", "Engine restores applied.")
	m.extractions = reg.Counter("bagcpd_streams_extracted_total", "Streams extracted into migration envelopes.")
	m.adoptions = reg.Counter("bagcpd_streams_adopted_total", "Streams adopted from migration envelopes.")
	m.respWriteErrors = reg.Counter("bagcpd_push_response_write_errors_total", "Push response rows dropped because the client connection failed mid-response.")

	// EMD cost-amortization totals, sampled from the solver package at
	// scrape time (every detector solve publishes into them). The hit:eval
	// ratio shows how much ground-distance work the cost caches absorb.
	reg.CounterFunc("emd_ground_evals_total", "Ground-distance evaluations performed by EMD solves.", func() uint64 {
		ge, _, _ := emd.GlobalStats()
		return ge
	})
	reg.CounterFunc("emd_cost_cache_hits_total", "Cost cells served from EMD ground-cost caches.", func() uint64 {
		_, ch, _ := emd.GlobalStats()
		return ch
	})
	reg.CounterFunc("emd_cost_cache_misses_total", "Cost cells computed and stored into EMD ground-cost caches.", func() uint64 {
		_, _, cm := emd.GlobalStats()
		return cm
	})

	m.batchLat = reg.Summary("bagcpd_push_batch_seconds",
		fmt.Sprintf("Push batch latency (window of last %d batches).", latencyWindow),
		latencyWindow, []float64{0.5, 0.9, 0.99})

	// Stage-level pipeline instrumentation: per-stage push histograms and
	// solver work counters, labeled with the engine's statistic name.
	eng.Instrument(reg)

	// Process runtime state (goroutines, heap, GC), sampled at scrape.
	obs.RegisterRuntimeGauges(reg)
	return m
}

// observeBatch records one completed push batch.
func (m *metrics) observeBatch(seconds float64, bags, points, rowErrors int) {
	m.batches.Inc()
	m.bags.Add(uint64(bags))
	m.points.Add(uint64(points))
	m.rowErrors.Add(uint64(rowErrors))
	m.batchLat.Observe(seconds)
}
