package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/oplog"
)

// The traced run rebuilds the workload's stack in-process from the
// public constructors and times calls into each layer's entry points.
// The server calls the engine and the oplog internally, so those spans
// come from a second engine (and oplog and spill store) with the same
// configuration, fed the same batches right after the server handled
// them. The stage split inside apply comes from that engine's stage
// histograms. Spans stay in memory until the run ends.
//
// A plain copy of the stack, with no span wrappers and no second
// engine, takes the same batches interleaved with the traced copy; the
// entry-point time of the two gives the tracing overhead.

// span is one timed call. Times are nanoseconds since the traced run
// began; Parent is 0 for a batch's root span (see linkParents).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on && t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.on = on
}

func (t *tracer) record(name, trace string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Trace: trace,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

// stack is the in-process copy of a workload's deployment. A stack
// without a tracer is plain: no span wrappers and no second engine.
type stack struct {
	w       *workload
	entry   http.Handler
	servers []*repro.Server
	engines []*repro.Engine
	httpds  []*httptest.Server

	// The second engine and its durability tier.
	eng2    *repro.Engine
	reg2    *obs.Registry
	wal2    *oplog.Log
	store2  *oplog.StreamStore
	lastUse map[string]int
	clock2  map[int32]int
	tr      *tracer
}

func newStack(w *workload, dseed int64, dir string, tr *tracer) (*stack, error) {
	st := &stack{w: w, tr: tr, lastUse: map[string]int{}, clock2: map[int32]int{}}
	var urls []string
	for i := 0; i < w.memberCount(); i++ {
		eng, err := w.newEngine(dseed)
		if err != nil {
			return nil, err
		}
		st.engines = append(st.engines, eng)
		cfg := repro.ServerConfig{Engine: eng, MaxResident: w.poolMax}
		if w.oplog {
			cfg.OplogDir = filepath.Join(dir, "member"+strconv.Itoa(i))
		}
		srv, err := repro.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		st.servers = append(st.servers, srv)
		h := st.traceHandler("server", srv)
		if !w.routed {
			st.entry = h
			continue
		}
		hs := httptest.NewServer(h)
		st.httpds = append(st.httpds, hs)
		urls = append(urls, hs.URL)
	}
	if w.routed {
		rt, err := repro.NewRouter(repro.RouterConfig{Members: urls})
		if err != nil {
			return nil, err
		}
		st.entry = st.traceHandler("router", rt)
	}
	if tr == nil {
		return st, nil
	}
	var err error
	if st.eng2, err = w.newEngine(dseed); err != nil {
		return nil, err
	}
	st.reg2 = obs.NewRegistry()
	st.eng2.Instrument(st.reg2)
	if w.oplog {
		if st.wal2, err = oplog.Open(filepath.Join(dir, "wal2"), oplog.Options{}); err != nil {
			return nil, err
		}
	}
	if w.poolMax > 0 {
		if st.store2, err = oplog.OpenStreamStore(filepath.Join(dir, "spill2")); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// traceHandler wraps a layer's ServeHTTP in a span on push requests.
func (st *stack) traceHandler(name string, h http.Handler) http.Handler {
	if st.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/push" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		st.tr.record(name, req.Header.Get(obs.TraceHeader), start, time.Now())
	})
}

func (st *stack) close() {
	for _, hs := range st.httpds {
		hs.Close()
	}
	for i, srv := range st.servers {
		srv.Close()
		st.engines[i].Shutdown()
	}
	if st.eng2 != nil {
		st.eng2.Shutdown()
	}
	if st.wal2 != nil {
		st.wal2.Close()
	}
}

// serve runs one batch through the stack's entry point and returns the
// response, timed from the call to its return.
func (st *stack) serve(b *batch, trace string) outcome {
	req := httptest.NewRequest(http.MethodPost, "/v1/push", bytes.NewReader(b.body))
	req.Header.Set(obs.TraceHeader, trace)
	rec := httptest.NewRecorder()
	start := time.Now()
	st.entry.ServeHTTP(rec, req)
	return outcome{status: rec.Code, body: rec.Body.Bytes(), sent: start, done: time.Now()}
}

// shadow runs one batch, after the stack has served it, through the
// second engine and its durability tier, with spans around each call.
func (st *stack) shadow(g *generator, b *batch, trace string, seq int) error {
	bags := g.streamBags(b, st.clock2)
	if st.store2 != nil {
		if err := st.page(bags, trace, seq); err != nil {
			return err
		}
	}
	var onApply func(i int, mark uint64)
	if st.wal2 != nil {
		onApply = func(i int, mark uint64) {
			t0 := time.Now()
			st.wal2.Enqueue(&oplog.Record{Op: oplog.OpPush, Stream: bags[i].StreamID,
				BagT: bags[i].Bag.T, Bag: bags[i].Bag.Points, Mark: mark, Trace: trace})
			st.tr.record("oplog.enqueue", trace, t0, time.Now())
		}
	}
	t0 := time.Now()
	if _, err := st.eng2.PushBatchFn(bags, onApply); err != nil {
		return fmt.Errorf("traced engine: %w", err)
	}
	st.tr.record("core.apply", trace, t0, time.Now())
	if st.wal2 != nil {
		t0 := time.Now()
		if err := st.wal2.Sync(); err != nil {
			return err
		}
		st.tr.record("oplog.sync", trace, t0, time.Now())
	}
	return nil
}

// page keeps the second engine's resident set within the pool bound the
// way the server does: spill the least recently pushed streams outside
// the batch, then fault the batch's spilled streams back in.
func (st *stack) page(bags []repro.StreamBag, trace string, seq int) error {
	ids := map[string]bool{}
	var faults []string
	newcomers := 0
	for _, sb := range bags {
		id := sb.StreamID
		if ids[id] {
			continue
		}
		ids[id] = true
		if _, open := st.eng2.Get(id); !open {
			newcomers++
			if st.store2.Has(id) {
				faults = append(faults, id)
			}
		}
	}
	if over := st.eng2.Len() + newcomers - st.w.poolMax; over > 0 {
		var cands []string
		for _, id := range st.eng2.StreamIDs() {
			if !ids[id] {
				cands = append(cands, id)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := st.lastUse[cands[i]], st.lastUse[cands[j]]
			return a < b || a == b && cands[i] < cands[j]
		})
		victims := cands[:min(over, len(cands))]
		t0 := time.Now()
		snap, err := st.eng2.SnapshotStreams(victims...)
		if err != nil {
			return err
		}
		for _, part := range snap.SplitByStream() {
			blob, err := json.Marshal(&part)
			if err != nil {
				return err
			}
			id := part.Streams[0].ID
			if err := st.store2.Put(id, blob); err != nil {
				return err
			}
			if s, ok := st.eng2.Get(id); ok {
				s.Close()
			}
		}
		st.tr.record("pool.spill", trace, t0, time.Now())
	}
	sort.Strings(faults)
	for _, id := range faults {
		t0 := time.Now()
		blob, ok, err := st.store2.Get(id)
		if err != nil || !ok {
			return fmt.Errorf("fault-in %q: missing spill (%v)", id, err)
		}
		var env repro.EngineSnapshot
		if err := json.Unmarshal(blob, &env); err != nil {
			return err
		}
		if err := st.eng2.RestoreStreams(&env); err != nil {
			return err
		}
		if err := st.store2.Delete(id); err != nil {
			return err
		}
		st.tr.record("pool.faultin", trace, t0, time.Now())
	}
	for id := range ids {
		st.lastUse[id] = seq
	}
	return nil
}

// traced is the result of the traced run.
type traced struct {
	spans      []span
	batches    int
	bags       int
	entry      time.Duration // entry-point time of the timed batches, traced stack
	plainEntry time.Duration // ... and of the same batches on the plain stack
	stage      [obs.NumStages]float64
	stageCnt   [obs.NumStages]float64
	outs       []map[*batch]outcome // per stack: traced, plain
}

// runTraced replays the setup and the first closed-loop segment through
// the traced and the plain in-process stack, one batch at a time.
func runTraced(w *workload, g *generator, dseed int64, dir string, setup, timed []*batch) (*traced, error) {
	tr := &tracer{}
	st, err := newStack(w, dseed, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	plain, err := newStack(w, dseed, filepath.Join(dir, "plain"), nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	res := &traced{outs: []map[*batch]outcome{{}, {}}}
	run := func(bs []*batch, seq0 int, count bool) error {
		g.render(bs)
		defer release(bs)
		for i, b := range bs {
			trace := "b" + strconv.Itoa(seq0+i)
			// Alternate which stack goes first, so neither always
			// finds the other's work in the caches.
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			var outs [2]outcome
			for _, k := range order {
				outs[k] = []*stack{st, plain}[k].serve(b, trace)
				res.outs[k][b] = outs[k]
			}
			if err := st.shadow(g, b, trace, seq0+i); err != nil {
				return err
			}
			if count {
				res.batches++
				res.bags += len(b.rows)
				res.entry += outs[0].done.Sub(outs[0].sent)
				res.plainEntry += outs[1].done.Sub(outs[1].sent)
			}
		}
		return nil
	}
	if err := run(setup, 0, false); err != nil {
		return nil, err
	}
	before, err := registryCounters(st.reg2)
	if err != nil {
		return nil, err
	}
	tr.enable(true)
	if err := run(timed, len(setup), true); err != nil {
		return nil, err
	}
	tr.enable(false)
	after, err := registryCounters(st.reg2)
	if err != nil {
		return nil, err
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		label := `stage="` + s.String() + `"`
		res.stage[s] = delta(before, after, "bagcpd_push_stage_seconds_sum", label)
		res.stageCnt[s] = delta(before, after, "bagcpd_push_stage_seconds_count", label)
	}
	res.spans = linkParents(tr.spans, w.routed)
	return res, nil
}

// linkParents sets each span's parent once a batch's spans are all
// recorded: the entry point's span (router, else server) is the root,
// every other span of the batch hangs off it, and oplog enqueues hang
// off the apply span they ran inside.
func linkParents(spans []span, routed bool) []span {
	rootName := "server"
	if routed {
		rootName = "router"
	}
	root, apply := map[string]int{}, map[string]int{}
	for _, s := range spans {
		switch s.Name {
		case rootName:
			root[s.Trace] = s.ID
		case "core.apply":
			apply[s.Trace] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == rootName:
		case s.Name == "oplog.enqueue":
			s.Parent = apply[s.Trace]
		default:
			s.Parent = root[s.Trace]
		}
	}
	return spans
}

func registryCounters(reg *obs.Registry) (counters, error) {
	var buf bytes.Buffer
	reg.Render(&buf)
	return parseCounters(&buf)
}

// layerTimes derives the span-based per-layer metrics.
func (t *traced) layerTimes(w *workload) map[string]float64 {
	type agg struct {
		root, apply, sync, enq float64
		servers                []float64
	}
	per := map[string]*agg{}
	get := func(trace string) *agg {
		a, ok := per[trace]
		if !ok {
			a = &agg{}
			per[trace] = a
		}
		return a
	}
	var faultin, faultins float64
	for i := range t.spans {
		s := &t.spans[i]
		d := s.dur().Seconds()
		a := get(s.Trace)
		switch s.Name {
		case "router":
			a.root = d
		case "server":
			a.servers = append(a.servers, d)
			if !w.routed {
				a.root = d
			}
		case "core.apply":
			a.apply += d
		case "oplog.enqueue":
			a.enq += d
		case "oplog.sync":
			a.sync += d
		case "pool.faultin":
			faultin += d
			faultins++
		}
	}
	var self, serverSum, routerSelf, fanout, apply, sync, enq float64
	for _, a := range per {
		lo, hi, sum := 0.0, 0.0, 0.0
		for k, d := range a.servers {
			sum += d
			if k == 0 || d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		serverSum += sum
		self += sum - a.apply - a.sync
		if w.routed {
			routerSelf += a.root - hi
			if len(a.servers) > 1 {
				fanout += hi - lo
			}
		}
		apply += a.apply
		sync += a.sync
		enq += a.enq
	}
	n := float64(t.batches)
	bags := float64(t.bags)
	stageSum := 0.0
	for _, s := range t.stage {
		stageSum += s
	}
	m := map[string]float64{
		"server.self_ms_per_batch":        self / n * 1e3,
		"server.self_share":               ratio(self, serverSum),
		"router.self_ms_per_batch":        routerSelf / n * 1e3,
		"router.fanout_wait_ms_per_batch": fanout / n * 1e3,
		"core.apply_ms_per_batch":         apply / n * 1e3,
		"core.busy_ratio":                 ratio(stageSum, apply*float64(runtime.GOMAXPROCS(0))),
		"signature.us_per_bag":            t.stage[obs.StageSignature] / bags * 1e6,
		"emd.us_per_bag":                  t.stage[obs.StageEMD] / bags * 1e6,
		"bootstrap.us_per_bag":            t.stage[obs.StageBootstrap] / bags * 1e6,
		"bootstrap.ns_per_replicate":      ratio(t.stage[obs.StageBootstrap], t.stageCnt[obs.StageBootstrap]*float64(w.replicates)) * 1e9,
		"oplog.enqueue_us_per_row":        enq / bags * 1e6,
		"oplog.sync_ms_per_batch":         sync / n * 1e3,
		"pool.faultin_ms":                 ratio(faultin, faultins) * 1e3,
		"trace.coverage":                  coverage(t.spans),
		"trace.overhead_ratio":            ratio(t.plainEntry.Seconds(), t.entry.Seconds()),
	}
	return m
}

// coverage is the share of the root spans' time that spans running
// inside them account for: per batch, the union of the batch's other
// spans clipped to its root span, over the root span. Only the router
// has traced layers inside it; spans inside the server are not traced,
// so a server root reads 0.
func coverage(spans []span) float64 {
	roots := map[string]*span{}
	for i := range spans {
		if spans[i].Parent == 0 {
			roots[spans[i].Trace] = &spans[i]
		}
	}
	inside := map[string][][2]int64{}
	for i := range spans {
		s := &spans[i]
		root := roots[s.Trace]
		if s.Parent == 0 || root == nil {
			continue
		}
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if lo < hi {
			inside[s.Trace] = append(inside[s.Trace], [2]int64{lo, hi})
		}
	}
	var total, covered int64
	for trace, root := range roots {
		total += root.End - root.Start
		ivs := inside[trace]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		end := int64(math.MinInt64)
		for _, iv := range ivs {
			if iv[0] > end {
				covered += iv[1] - iv[0]
			} else if iv[1] > end {
				covered += iv[1] - end
			}
			end = max(end, iv[1])
		}
	}
	return ratio(float64(covered), float64(total))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the spans as NDJSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
