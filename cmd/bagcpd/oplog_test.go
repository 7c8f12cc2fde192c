package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"

	"repro"
)

// TestServeOplogCrashReplay is the durability acceptance drill, run
// across real processes: process A serves with -oplog, acknowledges
// pushes, and is SIGKILLed — no drain, no snapshot, no checkpoint. Its
// newest oplog segment then gets a torn half-record appended, playing
// the write that was in flight when the kernel pulled the plug.
// Process B starting on the same directory must replay back to exactly
// the acknowledged state: every continued push scores bit-identically
// to an uninterrupted in-process reference, and the stream listing
// reports the full push counts.
func TestServeOplogCrashReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ids := []string{"crash-a", "crash-b", "crash-c"}
	const steps, cut = 12, 7
	oplogDir := filepath.Join(t.TempDir(), "oplog")

	// Uninterrupted reference, bit-exact by the engine contract.
	ref := refEngine(t)
	type key struct {
		id   string
		step int
	}
	want := make(map[key]*repro.Point)
	for step := 0; step < steps; step++ {
		var batch []repro.StreamBag
		for _, id := range ids {
			batch = append(batch, repro.StreamBag{StreamID: id, Bag: repro.BagFromScalars(step, serveBag(id, step))})
		}
		results, err := ref.PushBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			want[key{ids[i], step}] = res.Point
		}
	}

	// Process A: acknowledge the first half, then die by SIGKILL.
	cmdA, baseA := startServeProcess(t, "-oplog", oplogDir)
	for step := 0; step < cut; step++ {
		rows := servePush(t, baseA, step, ids...)
		for i, id := range ids {
			if rows[i].Error != "" || rows[i].BagT != step {
				t.Fatalf("A step %d stream %s: %+v", step, id, rows[i])
			}
		}
	}
	if err := cmdA.Process.Kill(); err != nil { // SIGKILL: no handler runs
		t.Fatal(err)
	}
	cmdA.Wait()

	// The crash artifact: a half-written record at the tail of the
	// newest segment.
	segs, err := filepath.Glob(filepath.Join(oplogDir, "oplog-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no oplog segments written (%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"push","stream":"crash-a","bag_t":7,"bag":[[1.2,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Process B: same directory, fresh engine, no restore call — the
	// oplog alone must reconstruct the acknowledged state.
	_, baseB := startServeProcess(t, "-oplog", oplogDir)
	for step := cut; step < steps; step++ {
		rows := servePush(t, baseB, step, ids...)
		for i, id := range ids {
			row := rows[i]
			if row.Error != "" {
				t.Fatalf("B step %d stream %s: %s", step, id, row.Error)
			}
			if row.BagT != step {
				t.Fatalf("B step %d stream %s: bag_t %d (replayed clock out of sync)", step, id, row.BagT)
			}
			wp := want[key{id, step}]
			if wp == nil {
				if !row.Pending {
					t.Fatalf("B step %d stream %s: expected pending, got %+v", step, id, row)
				}
				continue
			}
			if row.Score == nil || *row.Score != wp.Score ||
				*row.Lo != wp.Interval.Lo || *row.Up != wp.Interval.Up ||
				*row.T != wp.T || row.Alarm != wp.Alarm {
				t.Fatalf("B step %d stream %s: replayed row %+v != uninterrupted %+v (interval %+v)",
					step, id, row, wp, wp.Interval)
			}
		}
	}

	// The replayed process carries the full per-stream push counts.
	resp, err := http.Get(baseB + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Streams []struct {
			ID     string `json:"id"`
			Pushed int    `json:"pushed"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Streams) != len(ids) {
		t.Fatalf("streams after replay: %+v", listing.Streams)
	}
	for _, s := range listing.Streams {
		if s.Pushed != steps {
			t.Fatalf("stream %s pushed %d, want %d", s.ID, s.Pushed, steps)
		}
	}

	// Durability telemetry: the replay surfaced the torn tail.
	resp, err = http.Get(baseB + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, probe := range []string{
		"bagcpd_oplog_truncated_bytes_total",
		"bagcpd_oplog_records_total",
		"bagcpd_oplog_fsync_seconds_bucket",
	} {
		if !containsLine(string(metrics), probe) {
			t.Fatalf("metrics exposition lacks %s", probe)
		}
	}
}

func containsLine(exposition, name string) bool {
	for _, line := range splitLines(exposition) {
		if len(line) >= len(name) && line[:len(name)] == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestServeOplogSpillFaultInCrash is the regression drill for a stream
// whose base state lives only in its spill file. With -pool-max 1, a
// second stream spills the first; a drain checkpoints the resident one
// only. After a restart, a push faults the spilled stream back in, and
// the process is SIGKILLed before any checkpoint holds that stream. The
// log suffix then carries the stream's new push but not its base state,
// so the spill file must still be on disk: the next start must recover
// and every continued push must score bit-identically to an
// uninterrupted in-process reference.
func TestServeOplogSpillFaultInCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	oplogDir := filepath.Join(t.TempDir(), "oplog")
	args := []string{
		"-serve", "127.0.0.1:0",
		"-tau", "2", "-tau-prime", "2",
		"-hist-lo", "-5", "-hist-hi", "5", "-hist-bins", "10",
		"-bootstrap", "120", "-seed", "7",
		"-oplog", oplogDir, "-pool-max", "1",
	}
	ref, err := repro.NewEngine(
		repro.WithTau(2), repro.WithTauPrime(2),
		repro.WithBuilderFactory(repro.HistogramFactory(-5, 5, 10)),
		repro.WithBootstrap(repro.BootstrapConfig{Replicates: 120}),
		repro.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string]int{}
	// push sends the stream's next bag to the server and to the
	// reference engine, and checks the acknowledged row against the
	// reference point.
	push := func(base, id string) {
		t.Helper()
		step := next[id]
		next[id]++
		rows := servePush(t, base, step, id)
		st, err := ref.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.Push(repro.BagFromScalars(step, serveBag(id, step)))
		if err != nil {
			t.Fatal(err)
		}
		row := rows[0]
		if row.Error != "" || row.BagT != step {
			t.Fatalf("stream %s step %d: %+v", id, step, row)
		}
		if want == nil {
			if !row.Pending {
				t.Fatalf("stream %s step %d: expected pending, got %+v", id, step, row)
			}
			return
		}
		if row.Score == nil || *row.Score != want.Score ||
			*row.Lo != want.Interval.Lo || *row.Up != want.Interval.Up ||
			*row.T != want.T || row.Alarm != want.Alarm {
			t.Fatalf("stream %s step %d: row %+v != uninterrupted %+v (interval %+v)", id, step, row, want, want.Interval)
		}
	}

	// A: a, a, b — b's arrival spills a — then a graceful drain, whose
	// checkpoint holds b only.
	cmdA, base := startBagcpd(t, args...)
	push(base, "a")
	push(base, "a")
	push(base, "b")
	if err := cmdA.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmdA.Wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}

	// B: a faults back in (spilling b), is pushed and acknowledged, and
	// the process dies before any checkpoint.
	cmdB, base := startBagcpd(t, args...)
	push(base, "a")
	if err := cmdB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdB.Wait()

	// C must recover both streams and continue them bit-identically.
	_, base = startBagcpd(t, args...)
	for i := 0; i < 3; i++ {
		push(base, "a")
		push(base, "b")
	}
}
