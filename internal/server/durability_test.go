package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/signature"
)

// newestSegment returns the highest-indexed oplog segment in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "oplog-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no oplog segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// scoredEqual fails unless two response rows agree on everything a
// client consumes.
func scoredEqual(t *testing.T, tag string, got, want resultRow) {
	t.Helper()
	if got.Stream != want.Stream || got.BagT != want.BagT || got.Pending != want.Pending ||
		got.Error != want.Error || got.Alarm != want.Alarm {
		t.Fatalf("%s: row %+v != reference %+v", tag, got, want)
	}
	eqF := func(a, b *float64) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	}
	eqI := func(a, b *int) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		return a == nil || *a == *b
	}
	if !eqI(got.T, want.T) || !eqF(got.Score, want.Score) || !eqF(got.Lo, want.Lo) ||
		!eqF(got.Up, want.Up) || !eqF(got.Kappa, want.Kappa) {
		t.Fatalf("%s: scored row %+v != reference %+v", tag, got, want)
	}
}

// TestOplogRecoverTornTail is the in-process crash drill: server A
// acknowledges pushes into an oplog, is abandoned without a checkpoint,
// the newest segment gets a torn tail appended (the crash artifact),
// and server B recovering the same directory — with a fresh engine —
// must continue every stream bit-identically to a server that never
// stopped. A checkpoint mid-way exercises the envelope + suffix path.
func TestOplogRecoverTornTail(t *testing.T) {
	ids := []string{"d-0", "d-1", "d-2"}
	const steps, ckptAt, cut = 14, 4, 9

	_, refTS := newTestServer(t, nil)
	var want [][]resultRow
	for step := 0; step < steps; step++ {
		want = append(want, doPush(t, refTS, pushBody(step, ids...)))
	}

	dir := t.TempDir()
	srvA, tsA := newTestServer(t, func(c *Config) { c.OplogDir = dir })
	for step := 0; step < cut; step++ {
		rows := doPush(t, tsA, pushBody(step, ids...))
		for i := range rows {
			scoredEqual(t, fmt.Sprintf("A step %d row %d", step, i), rows[i], want[step][i])
		}
		if step == ckptAt {
			if err := srvA.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	// "Crash": drop A without a drain checkpoint. Close the log so B can
	// own the files; every acknowledged row is already fsynced, so this
	// adds no durability a real SIGKILL wouldn't have had.
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(newestSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"push","stream":"d-0","bag_t":9,"bag":[[0.1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srvB, tsB := newTestServer(t, func(c *Config) { c.OplogDir = dir })
	if n := srvB.eng.Len(); n != len(ids) {
		t.Fatalf("recovered %d streams, want %d", n, len(ids))
	}
	// The torn row was never acknowledged: d-0's clock must sit at cut,
	// so the client's retry of step `cut` gets the same label again.
	rows := doPush(t, tsB, pushBody(cut, ids...))
	for i := range rows {
		scoredEqual(t, fmt.Sprintf("B step %d row %d", cut, i), rows[i], want[cut][i])
	}
	for step := cut + 1; step < steps; step++ {
		rows := doPush(t, tsB, pushBody(step, ids...))
		for i := range rows {
			scoredEqual(t, fmt.Sprintf("B step %d row %d", step, i), rows[i], want[step][i])
		}
	}
}

// poolFactories are the five builder families the spill path must
// round-trip: a spilled-and-faulted stream re-enters scoring through
// its serialized envelope, so any signature state the envelope drops
// would surface here as a score divergence.
var poolFactories = map[string]signature.BuilderFactory{
	"kmeans":   signature.KMeansFactory(4, cluster.Config{}),
	"kmedoids": signature.KMedoidsFactory(4, cluster.Config{}),
	"online":   signature.OnlineFactory(4, 0.1),
	"hist":     signature.HistogramFactory(-6, 9, 24),
	"grid":     signature.GridFactory([]float64{-6}, []float64{9}, 24),
}

func factoryEngine(t testing.TB, f signature.BuilderFactory) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{
			Tau: 3, TauPrime: 3,
			Bootstrap: bootstrap.Config{Replicates: 150},
		},
		Factory: f,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSpillPoolBitIdentity: M streams through a pool bounded at P ≪ M
// must score bit-identically to an unbounded server, for every builder
// family, while resident streams never exceed P and the spill/fault-in
// counters prove streams actually paged through disk.
func TestSpillPoolBitIdentity(t *testing.T) {
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("p-%d", i)
	}
	const steps, bound = 11, 3

	for name, factory := range poolFactories {
		t.Run(name, func(t *testing.T) {
			_, refTS := newTestServer(t, func(c *Config) { c.Engine = factoryEngine(t, factory) })
			want := make(map[string][]resultRow)
			for step := 0; step < steps; step++ {
				for _, id := range ids {
					rows := doPush(t, refTS, pushBody(step, id))
					want[id] = append(want[id], rows[0])
				}
			}

			srv, ts := newTestServer(t, func(c *Config) {
				c.Engine = factoryEngine(t, factory)
				c.SpillDir = t.TempDir()
				c.MaxResident = bound
			})
			for step := 0; step < steps; step++ {
				for _, id := range ids {
					rows := doPush(t, ts, pushBody(step, id))
					scoredEqual(t, fmt.Sprintf("%s %s step %d", name, id, step), rows[0], want[id][step])
				}
			}
			if peak := srv.poolPeak.Load(); peak > bound {
				t.Fatalf("resident peak %d exceeded pool bound %d", peak, bound)
			}
			if srv.met.spills.Value() == 0 || srv.met.faultins.Value() == 0 {
				t.Fatalf("pool never paged: spills=%d faultins=%d",
					srv.met.spills.Value(), srv.met.faultins.Value())
			}
			if srv.met.spillErrors.Value() != 0 {
				t.Fatalf("spill errors: %d", srv.met.spillErrors.Value())
			}
		})
	}
}

// TestEvictSpillContinuation is the eviction bugfix headline: an idle
// stream evicted in spill mode is NOT lost — its next push faults the
// envelope back in and scoring continues exactly where it left off.
func TestEvictSpillContinuation(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	const steps, cut = 12, 6
	id := "evicted"

	_, refTS := newTestServer(t, nil)
	var want []resultRow
	for step := 0; step < steps; step++ {
		want = append(want, doPush(t, refTS, pushBody(step, id))[0])
	}

	srv, ts := newTestServer(t, func(c *Config) {
		c.SpillDir = t.TempDir()
		c.Now = clock.Now
	})
	for step := 0; step < cut; step++ {
		rows := doPush(t, ts, pushBody(step, id))
		scoredEqual(t, fmt.Sprintf("pre-evict step %d", step), rows[0], want[step])
	}
	clock.Advance(time.Hour)
	evicted := srv.EvictIdle(30 * time.Minute)
	if len(evicted) != 1 || evicted[0] != id {
		t.Fatalf("EvictIdle = %v, want [%s]", evicted, id)
	}
	if srv.eng.Len() != 0 {
		t.Fatalf("stream still resident after spill eviction")
	}
	if !srv.spill.Has(id) {
		t.Fatal("spill store does not hold the evicted stream")
	}
	for step := cut; step < steps; step++ {
		rows := doPush(t, ts, pushBody(step, id))
		scoredEqual(t, fmt.Sprintf("post-evict step %d", step), rows[0], want[step])
	}
	if srv.met.faultins.Value() != 1 {
		t.Fatalf("faultins = %d, want 1", srv.met.faultins.Value())
	}
	if srv.spill.Has(id) {
		t.Fatal("spill file survived the fault-in")
	}
}

// TestEvictSweepRace: the sweep must not hold the phase lock across the
// whole candidate set, and a stream pushed between the census and its
// batch keeps its state. EvictBatch=1 makes every candidate its own
// batch; the sweepPause hook pushes to a later candidate in the
// lock-free window between batches.
func TestEvictSweepRace(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	srv, ts := newTestServer(t, func(c *Config) {
		c.Now = clock.Now
		c.EvictBatch = 1
	})
	ids := []string{"r-a", "r-b", "r-c"}
	for step := 0; step < 2; step++ {
		doPush(t, ts, pushBody(step, ids...))
	}
	clock.Advance(time.Hour)

	pushed := false
	srv.sweepPause = func() {
		if pushed {
			return
		}
		pushed = true
		// Between batches no locks are held: this push must neither
		// deadlock nor be torn down by the batches that follow it.
		doPush(t, ts, pushBody(2, "r-c"))
	}
	evicted := srv.EvictIdle(30 * time.Minute)
	if !pushed {
		t.Fatal("sweepPause never ran — sweep was not batched")
	}
	wantEvicted := []string{"r-a", "r-b"}
	if len(evicted) != len(wantEvicted) || evicted[0] != wantEvicted[0] || evicted[1] != wantEvicted[1] {
		t.Fatalf("evicted %v, want %v (r-c was re-pushed mid-sweep)", evicted, wantEvicted)
	}
	if _, open := srv.eng.Get("r-c"); !open {
		t.Fatal("re-pushed stream r-c was evicted out from under its acknowledgement")
	}
	// MaxEvictPerSweep caps a sweep's total work.
	clock.Advance(2 * time.Hour)
	srv.sweepPause = nil
	srv.cfg.MaxEvictPerSweep = 1
	if evicted := srv.EvictIdle(30 * time.Minute); len(evicted) != 1 {
		t.Fatalf("capped sweep evicted %v, want exactly 1", evicted)
	}
}

// TestCloseSpilledStream: a spilled stream is still logically open —
// the close endpoint must drop its on-disk envelope, not 404.
func TestCloseSpilledStream(t *testing.T) {
	clock := &testClock{t: time.Unix(1000, 0)}
	srv, ts := newTestServer(t, func(c *Config) {
		c.SpillDir = t.TempDir()
		c.Now = clock.Now
	})
	doPush(t, ts, pushBody(0, "s-0"))
	clock.Advance(time.Hour)
	if evicted := srv.EvictIdle(time.Minute); len(evicted) != 1 {
		t.Fatalf("evicted %v", evicted)
	}
	resp, err := http.Post(ts.URL+"/v1/streams/s-0/close", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close of spilled stream: status %d", resp.StatusCode)
	}
	if srv.spill.Has("s-0") {
		t.Fatal("spill file survived the close")
	}
	// The next life starts from tick 0.
	rows := doPush(t, ts, pushBody(0, "s-0"))
	if rows[0].BagT != 0 {
		t.Fatalf("new life starts at bag_t %d, want 0", rows[0].BagT)
	}
}

// TestFaultInKeepsSpillUntilCheckpoint: with an oplog, a faulted-in
// stream keeps its spill file — the only durable copy of its base state
// — until a checkpoint holds the stream; the spilled gauge counts only
// non-resident streams; a close deletes the kept file; and a crash after
// such a close still recovers (replay skips the closed life whose base
// the close deleted) and continues every stream bit-identically.
func TestFaultInKeepsSpillUntilCheckpoint(t *testing.T) {
	_, refTS := newTestServer(t, nil)
	dir := t.TempDir()
	durable := func(c *Config) {
		c.OplogDir = dir
		c.MaxResident = 1
	}
	srvA, tsA := newTestServer(t, durable)
	step := func(ts *httptest.Server, id string, n int) {
		t.Helper()
		got := doPush(t, ts, pushBody(n, id))
		want := doPush(t, refTS, pushBody(n, id))
		scoredEqual(t, fmt.Sprintf("%s step %d", id, n), got[0], want[0])
	}
	closeStream := func(ts *httptest.Server, id string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/close", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("close %s: status %d", id, resp.StatusCode)
		}
	}

	step(tsA, "a", 0)
	step(tsA, "a", 1)
	step(tsA, "b", 0) // spills a
	if err := srvA.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step(tsA, "a", 2) // faults a in, spills b
	if !srvA.spill.Has("a") {
		t.Fatal("fault-in deleted the spill file before a checkpoint held the stream")
	}
	if n := srvA.spillCount(); n != 1 {
		t.Fatalf("spilled count %d, want 1 (b only; a is resident)", n)
	}
	closeStream(tsA, "a")
	closeStream(refTS, "a")
	if srvA.spill.Has("a") {
		t.Fatal("close left the faulted-in stream's spill file behind")
	}
	step(tsA, "a", 0) // a new life
	// "Crash": no drain checkpoint (see TestOplogRecoverTornTail).
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newTestServer(t, durable)
	step(tsB, "a", 1)
	step(tsB, "b", 1)
	step(tsB, "a", 2)
	if err := srvB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, id := range srvB.eng.StreamIDs() {
		if srvB.spill.Has(id) {
			t.Fatalf("checkpoint kept the spill file of live stream %s", id)
		}
	}
}

// TestRetryAfterDerived: the 429 hint follows the observed batch
// latency tail instead of the old hardcoded 1s.
func TestRetryAfterDerived(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	resp, err := http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(0, "x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("cold Retry-After = %q, want 1", got)
	}

	srv.met.batchLat.Observe(3.2) // p99 of the window → ceil → 4
	resp, err = http.Post(ts.URL+"/v1/push", "application/x-ndjson", strings.NewReader(pushBody(0, "x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Fatalf("loaded Retry-After = %q, want 4", got)
	}
}

// brokenWriter fails every write after the response headers, playing a
// client that hung up mid-response.
type brokenWriter struct {
	header http.Header
	code   int
}

func (b *brokenWriter) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}
func (b *brokenWriter) WriteHeader(code int)      { b.code = code }
func (b *brokenWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("connection reset") }

// TestPushResponseWriteErrors: a dead client connection stops the
// response loop at the first failed row and the dropped rows are
// counted — previously every Encode error was silently discarded.
func TestPushResponseWriteErrors(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	// Enough rows that the response overflows the bufio buffer and hits
	// the broken connection mid-loop.
	ids := make([]string, 80)
	for i := range ids {
		ids[i] = fmt.Sprintf("w-%d", i)
	}
	req := httptest.NewRequest("POST", "/v1/push", strings.NewReader(pushBody(0, ids...)))
	srv.ServeHTTP(&brokenWriter{}, req)
	if n := srv.met.respWriteErrors.Value(); n == 0 {
		t.Fatal("dropped response rows were not counted")
	} else if n > uint64(len(ids)) {
		t.Fatalf("counted %d drops for %d rows", n, len(ids))
	}
}
