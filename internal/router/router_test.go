package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/bag"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/signature"
)

// testEngine builds a member engine. Every member of a fleet MUST share
// the same config and seed: a stream's detector is seeded from (engine
// seed, stream id), which is what makes placement and migration
// invisible in the scores.
func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Template: core.Config{
			Tau: 3, TauPrime: 3,
			Bootstrap: bootstrap.Config{Replicates: 150},
		},
		Factory: signature.HistogramFactory(-6, 9, 24),
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// fleet is an in-process cluster: n member servers plus a router over
// them, all on httptest listeners.
type fleet struct {
	router  *Router
	front   *httptest.Server
	members []*httptest.Server
	engines []*core.Engine
}

func newFleet(t testing.TB, n int) *fleet {
	t.Helper()
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		eng := testEngine(t)
		srv, err := server.New(server.Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		f.members = append(f.members, ts)
		f.engines = append(f.engines, eng)
		urls = append(urls, ts.URL)
	}
	rt, err := New(Config{Members: urls})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.front = httptest.NewServer(rt)
	t.Cleanup(f.front.Close)
	return f
}

// streamBag generates the step-th deterministic bag of a stream, with a
// mean shift at step 8 so scored rows are non-trivial.
func streamBag(id string, step int) bag.Bag {
	rng := randx.New(randx.SplitSeedString(500, id) + int64(step))
	vals := make([]float64, 50)
	mu := 0.0
	if step >= 8 {
		mu = 3
	}
	for i := range vals {
		vals[i] = rng.Normal(mu, 1)
	}
	return bag.FromScalars(step, vals)
}

// resultRow mirrors the member server's NDJSON response row.
type resultRow struct {
	Stream  string   `json:"stream"`
	BagT    int      `json:"bag_t"`
	Pending bool     `json:"pending,omitempty"`
	T       *int     `json:"t,omitempty"`
	Score   *float64 `json:"score,omitempty"`
	Lo      *float64 `json:"lo,omitempty"`
	Up      *float64 `json:"up,omitempty"`
	Kappa   *float64 `json:"kappa,omitempty"`
	Alarm   bool     `json:"alarm,omitempty"`
	Error   string   `json:"error,omitempty"`
}

func pushBody(step int, ids ...string) string {
	var b strings.Builder
	for _, id := range ids {
		bagJSON, _ := json.Marshal(streamBag(id, step).Points)
		fmt.Fprintf(&b, "{\"stream\":%q,\"bag\":%s}\n", id, bagJSON)
	}
	return b.String()
}

func postNDJSON(t *testing.T, url, body string) (*http.Response, []resultRow) {
	t.Helper()
	resp, err := http.Post(url+"/v1/push", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []resultRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var row resultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad response row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, rows
}

func doPush(t *testing.T, url, body string) []resultRow {
	t.Helper()
	resp, rows := postNDJSON(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d (rows %v)", resp.StatusCode, rows)
	}
	return rows
}

// referencePoints runs the streams through standalone detectors with the
// fleet's per-stream configs — the oracle every routed/migrated run must
// match bit-for-bit.
func referencePoints(t *testing.T, eng *core.Engine, ids []string, steps int) map[string][]*core.Point {
	t.Helper()
	ref := make(map[string][]*core.Point)
	for _, id := range ids {
		det, err := core.New(eng.StreamConfig(id))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			p, err := det.Push(streamBag(id, step))
			if err != nil {
				t.Fatal(err)
			}
			ref[id] = append(ref[id], p)
		}
	}
	return ref
}

// checkRow compares one routed response row against the reference point
// for that (stream, step).
func checkRow(t *testing.T, row resultRow, id string, step int, want *core.Point) {
	t.Helper()
	if row.Error != "" {
		t.Fatalf("stream %s step %d: error row %q", id, step, row.Error)
	}
	if row.Stream != id || row.BagT != step {
		t.Fatalf("row out of order: got (%s, %d), want (%s, %d)", row.Stream, row.BagT, id, step)
	}
	if want == nil {
		if !row.Pending || row.Score != nil {
			t.Fatalf("stream %s step %d: want pending, got %+v", id, step, row)
		}
		return
	}
	if row.Score == nil || *row.Score != want.Score ||
		*row.Lo != want.Interval.Lo || *row.Up != want.Interval.Up ||
		row.Alarm != want.Alarm || *row.T != want.T {
		t.Fatalf("stream %s step %d: row %+v differs from reference %+v", id, step, row, want)
	}
}

// streamsOwnedBy picks stream ids the ring assigns to each member, so
// tests can aim rows at specific instances.
func streamsOwnedBy(r *Router, member string, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		id := fmt.Sprintf("s-%d", i)
		if r.Owner(id) == member {
			out = append(out, id)
		}
	}
	return out
}

// TestRouterPushEquivalence: rows fan out across a 3-member fleet and
// come back in input order, every scored row bit-identical to a
// standalone single-engine run of the same streams. The members listen
// on random ports, which move the ring, so the ids are picked by owner:
// two per member, interleaved, so every batch spans the whole fleet.
func TestRouterPushEquivalence(t *testing.T) {
	f := newFleet(t, 3)
	owned := make([][]string, len(f.members))
	for k, m := range f.members {
		if owned[k] = streamsOwnedBy(f.router, m.URL, 2); len(owned[k]) != 2 {
			t.Fatalf("could not pick two ids owned by %s", m.URL)
		}
	}
	var ids []string
	for i := 0; i < 2; i++ {
		for _, o := range owned {
			ids = append(ids, o[i])
		}
	}
	const steps = 12
	ref := referencePoints(t, f.engines[0], ids, steps)
	for step := 0; step < steps; step++ {
		rows := doPush(t, f.front.URL, pushBody(step, ids...))
		if len(rows) != len(ids) {
			t.Fatalf("step %d: %d rows for %d input rows", step, len(rows), len(ids))
		}
		for i, id := range ids {
			checkRow(t, rows[i], id, step, ref[id][step])
		}
	}

	// The aggregated stream listing sees every stream exactly once, each
	// annotated with its owning member.
	var listing struct {
		Streams []fleetStream `json:"streams"`
	}
	getJSON(t, f.front.URL+"/v1/streams", &listing)
	if len(listing.Streams) != len(ids) {
		t.Fatalf("fleet listing has %d streams, want %d: %+v", len(listing.Streams), len(ids), listing)
	}
	for _, fs := range listing.Streams {
		if fs.Member != f.router.Owner(fs.ID) {
			t.Fatalf("stream %s listed on %s but routed to %s", fs.ID, fs.Member, f.router.Owner(fs.ID))
		}
		if fs.Pushed == 0 {
			t.Fatalf("stream %s listed with zero pushes", fs.ID)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRouterMigration: live-migrate streams mid-traffic and verify the
// scores never notice — the migrated streams' remaining rows still match
// the standalone reference bit-for-bit, routing flips to the target, and
// the source no longer knows the streams.
func TestRouterMigration(t *testing.T) {
	f := newFleet(t, 2)
	source, target := f.members[0].URL, f.members[1].URL
	moving := streamsOwnedBy(f.router, source, 2)
	staying := streamsOwnedBy(f.router, target, 1)
	ids := append(append([]string{}, moving...), staying...)
	const steps, cut = 14, 7
	ref := referencePoints(t, f.engines[0], ids, steps)

	for step := 0; step < cut; step++ {
		rows := doPush(t, f.front.URL, pushBody(step, ids...))
		for i, id := range ids {
			checkRow(t, rows[i], id, step, ref[id][step])
		}
	}

	body, _ := json.Marshal(map[string]any{"streams": moving, "target": target})
	resp, err := http.Post(f.front.URL+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d: %s", resp.StatusCode, blob)
	}
	var migrated struct {
		Migrated []string `json:"migrated"`
		Target   string   `json:"target"`
	}
	if err := json.Unmarshal(blob, &migrated); err != nil {
		t.Fatal(err)
	}
	wantMoved := append([]string{}, moving...)
	sort.Strings(wantMoved)
	if !equalStrings(migrated.Migrated, wantMoved) || migrated.Target != target {
		t.Fatalf("migrate response %s, want streams %v -> %s", blob, wantMoved, target)
	}
	for _, id := range moving {
		if got := f.router.Owner(id); got != target {
			t.Fatalf("stream %s routes to %s after migration, want %s", id, got, target)
		}
	}

	// Traffic continues through the router; rows for the moved streams
	// now execute on the target, bit-identically.
	for step := cut; step < steps; step++ {
		rows := doPush(t, f.front.URL, pushBody(step, ids...))
		for i, id := range ids {
			checkRow(t, rows[i], id, step, ref[id][step])
		}
	}

	// The source must have forgotten the moved streams entirely (a push
	// addressed to it directly would RE-CREATE them from scratch, which
	// is exactly the split-brain the router's ownership flip prevents).
	var listing struct {
		Streams []fleetStream `json:"streams"`
	}
	getJSON(t, source+"/v1/streams", &listing)
	for _, fs := range listing.Streams {
		for _, id := range moving {
			if fs.ID == id {
				t.Fatalf("source still lists migrated stream %s", id)
			}
		}
	}

	// Migrating a stream onto the member it already routes to is a 409.
	resp2, err := http.Post(f.front.URL+"/v1/migrate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"streams":[%q],"target":%q}`, moving[0], target)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("re-migrate status %d, want 409", resp2.StatusCode)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterMemberDown: a dead member fails only its own rows — each
// gets an error row naming the member, the live member's rows still
// score, the batch stays 200, and /v1/streams reports the member
// unreachable instead of failing the aggregation.
func TestRouterMemberDown(t *testing.T) {
	f := newFleet(t, 2)
	deadURL := f.members[0].URL
	deadIDs := streamsOwnedBy(f.router, deadURL, 2)
	liveIDs := streamsOwnedBy(f.router, f.members[1].URL, 2)
	f.members[0].Close()

	ids := append(append([]string{}, deadIDs...), liveIDs...)
	ref := referencePoints(t, f.engines[1], liveIDs, 1)
	rows := doPush(t, f.front.URL, pushBody(0, ids...))
	if len(rows) != len(ids) {
		t.Fatalf("%d rows for %d inputs", len(rows), len(ids))
	}
	for i, id := range deadIDs {
		row := rows[i]
		if row.Stream != id || row.Error == "" || !strings.Contains(row.Error, deadURL) {
			t.Fatalf("dead-member row %d = %+v, want error naming %s", i, row, deadURL)
		}
	}
	for i, id := range liveIDs {
		checkRow(t, rows[len(deadIDs)+i], id, 0, ref[id][0])
	}

	var listing struct {
		Streams     []fleetStream `json:"streams"`
		Unreachable []string      `json:"unreachable"`
	}
	getJSON(t, f.front.URL+"/v1/streams", &listing)
	if !equalStrings(listing.Unreachable, []string{deadURL}) {
		t.Fatalf("unreachable = %v, want [%s]", listing.Unreachable, deadURL)
	}
	if len(listing.Streams) != len(liveIDs) {
		t.Fatalf("listing has %d streams, want the %d live ones", len(listing.Streams), len(liveIDs))
	}
}

// TestRouterBusyPropagation: when a member answers 429 the router
// answers 429 with the MAX Retry-After across busy members, rows owned
// by healthy members are still applied, and the busy rows say so.
func TestRouterBusyPropagation(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer busy.Close()

	eng := testEngine(t)
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(srv)
	defer func() { live.Close(); srv.Close() }()

	rt, err := New(Config{Members: []string{busy.URL, live.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	busyIDs := streamsOwnedBy(rt, busy.URL, 2)
	liveIDs := streamsOwnedBy(rt, live.URL, 1)
	ids := append(append([]string{}, busyIDs...), liveIDs...)

	resp, rows := postNDJSON(t, front.URL, pushBody(0, ids...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want 7 (the busy member's)", got)
	}
	if len(rows) != len(ids) {
		t.Fatalf("%d rows for %d inputs", len(rows), len(ids))
	}
	for i, id := range busyIDs {
		row := rows[i]
		if row.Stream != id || !strings.Contains(row.Error, "busy") || !strings.Contains(row.Error, "NOT applied") {
			t.Fatalf("busy row %+v, want busy error for %s", row, id)
		}
	}
	// The live rows WERE applied: the member really holds the stream.
	if n := eng.Stats().Open; n != len(liveIDs) {
		t.Fatalf("live member has %d streams open, want %d", n, len(liveIDs))
	}
	for i, id := range liveIDs {
		row := rows[len(busyIDs)+i]
		if row.Stream != id || row.Error != "" || !row.Pending {
			t.Fatalf("live row %+v, want applied (pending) row for %s", row, id)
		}
	}
}

// TestRouterValidation: malformed input is rejected before ANY row is
// forwarded, so a 400 always means "nothing was applied".
func TestRouterValidation(t *testing.T) {
	f := newFleet(t, 2)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(f.front.URL+"/v1/push", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	good := pushBody(0, "ok-stream")
	cases := []struct {
		name, body string
	}{
		{"bad json", good + "{nope\n"},
		{"missing stream", good + `{"bag":[[1]]}` + "\n"},
		{"empty bag", good + `{"stream":"x","bag":[]}` + "\n"},
		{"ragged bag", good + `{"stream":"x","bag":[[1,2],[3]]}` + "\n"},
		{"empty batch", "\n\n"},
	}
	for _, tc := range cases {
		if resp := post(tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// The good row travelled WITH invalid rows, so it must never have
	// been forwarded: the fleet holds no streams.
	for i, eng := range f.engines {
		if n := eng.Stats().Open; n != 0 {
			t.Fatalf("member %d has %d streams open after rejected batches", i, n)
		}
	}

	// Migration request validation.
	migrate := func(body string) int {
		t.Helper()
		resp, err := http.Post(f.front.URL+"/v1/migrate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := migrate(`{"streams":[],"target":"` + f.members[0].URL + `"}`); got != http.StatusBadRequest {
		t.Fatalf("empty migrate: %d, want 400", got)
	}
	if got := migrate(`{"streams":["a"],"target":"http://nonmember:1"}`); got != http.StatusBadRequest {
		t.Fatalf("non-member target: %d, want 400", got)
	}
	if got := migrate(`{"streams":["a","a"],"target":"` + f.members[0].URL + `"}`); got != http.StatusBadRequest {
		t.Fatalf("duplicate stream: %d, want 400", got)
	}
}

// TestRouterConfigErrors: constructor validation.
func TestRouterConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("router with no members accepted")
	}
	if _, err := New(Config{Members: []string{"ftp://x"}}); err == nil {
		t.Fatal("non-http member accepted")
	}
	if _, err := New(Config{Members: []string{"http://a", "http://a/"}}); err == nil {
		t.Fatal("duplicate member (after normalization) accepted")
	}
}

// TestRouterMetricsExposition: the router scrape carries its own
// counters, a per-member up gauge, and the member counters summed across
// the fleet.
func TestRouterMetricsExposition(t *testing.T) {
	f := newFleet(t, 2)
	ids := []string{"m-a", "m-b", "m-c"}
	owners := make(map[string]bool)
	for _, id := range ids {
		owners[f.router.Owner(id)] = true
	}
	for step := 0; step < 2; step++ {
		doPush(t, f.front.URL, pushBody(step, ids...))
	}
	target := f.members[1].URL
	var moving []string
	for _, id := range ids {
		if f.router.Owner(id) != target {
			moving = append(moving, id)
		}
	}
	if len(moving) > 0 {
		body, _ := json.Marshal(map[string]any{"streams": moving, "target": target})
		resp, err := http.Post(f.front.URL+"/v1/migrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("migrate: %d: %s", resp.StatusCode, blob)
		}
	}

	resp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(blob)
	for _, want := range []string{
		"bagcpd_router_push_batches_total 2",
		fmt.Sprintf("bagcpd_router_push_rows_total %d", 2*len(ids)),
		"bagcpd_router_forwarded_batches_total",
		"bagcpd_router_rejected_total 0",
		"bagcpd_router_member_errors_total 0",
		fmt.Sprintf("bagcpd_router_migrations_total %d", len(moving)),
		"bagcpd_router_migration_failures_total 0",
		fmt.Sprintf("bagcpd_router_member_up{member=%q} 1", f.members[0].URL),
		fmt.Sprintf("bagcpd_router_member_up{member=%q} 1", f.members[1].URL),
		// Fleet-aggregated member counters: the members' samples summed —
		// each step produced one sub-batch per distinct owning member.
		fmt.Sprintf("bagcpd_push_batches_total %d", 2*len(owners)),
		fmt.Sprintf("bagcpd_streams_extracted_total %d", len(moving)),
		fmt.Sprintf("bagcpd_streams_adopted_total %d", len(moving)),
		fmt.Sprintf("bagcpd_streams_open %d", len(ids)),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// /v1/members: both up, overrides counted on the target.
	var members struct {
		Members []memberInfo `json:"members"`
	}
	getJSON(t, f.front.URL+"/v1/members", &members)
	if len(members.Members) != 2 {
		t.Fatalf("members = %+v", members)
	}
	overrides := 0
	for _, mi := range members.Members {
		if !mi.Up {
			t.Fatalf("member %s reported down", mi.Member)
		}
		overrides += mi.Overrides
	}
	wantOverrides := 0
	for _, id := range moving {
		if f.router.ring.owner(id) != target {
			wantOverrides++
		}
	}
	if overrides != wantOverrides {
		t.Fatalf("override count %d, want %d", overrides, wantOverrides)
	}
}
