// Snapshot/restore: full detector and engine state as a versioned,
// JSON-serializable envelope.
//
// The detector is an online procedure, so a long-lived service must be
// able to checkpoint a stream's state and resume it elsewhere — that is
// how streams rebalance across engine instances. The contract is strict
// bit-identity: a restored detector's future Points (scores AND bootstrap
// intervals) are exactly those the uninterrupted detector would have
// produced, because the snapshot captures everything the output depends
// on — the signature window, the rolling log-EMD matrix, the interval
// history, the bootstrap shard stream positions, and (for randomized
// builders) the builder's RNG position. Everything else in a Detector is
// derived or scratch.
//
// What the snapshot does NOT carry is configuration identity: the
// builder factory and ground distance are code, not data. A snapshot can
// only be restored onto an engine constructed with the same Template,
// Factory and Seed; the envelope records a parameter fingerprint so
// mismatches fail loudly instead of producing silently different scores.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bootstrap"
	"repro/internal/randx"
	"repro/internal/signature"
)

// SnapshotVersion is the envelope schema version. Restore refuses other
// versions: the snapshot encodes internal stream positions whose meaning
// is tied to the code that wrote them.
//
// v2 changed what a default configuration computes: detectors began
// routing signatures of 128 or more centers through a block-pricing
// simplex, whose optimal cost can differ from the earlier simplex's in
// the last bits on degenerate instances. A v1 envelope restored here
// could therefore diverge from its source run without any fingerprint
// field disagreeing, so v1 is refused outright — a loud re-run beats a
// silent drift.
//
// v3 changed the large path's pricing from per-row candidate lists to
// per-block candidate queues with a cyclic drain cursor. The pivot
// ORDER differs from v2, so degenerate K≥128 instances can settle on a
// different equally-optimal basis and produce different last bits under
// an unchanged fingerprint — same reasoning as v2, so v2 envelopes are
// refused. Note what did NOT join the fingerprint: EMDCostCacheSlots.
// The ground-cost cache is bit-transparent (stored costs are the exact
// floats the ground returned, replayed through the identical comparison
// sequence), so cache configuration cannot change any computed value
// and snapshots may freely cross cache settings.
//
// v4 replaced the fingerprint's score field with the statistic NAME:
// the detector's per-inspection score is now a registry of named
// Statistic implementations (see statistic.go) of which the old
// ScoreKL/ScoreLR enum values are two, so an int can no longer identify
// which statistic produced the snapshotted intervals — a v4 reader
// handed a v3 envelope would have to GUESS the mapping for any engine
// carrying a registered custom statistic, and a wrong guess silently
// scores the restored window with a different statistic. v3 envelopes
// are refused outright (same doctrine as v1/v2): re-run or re-snapshot
// with a v4 writer. The JSON key is "statistic" and the legacy "score"
// key is gone, so a v3 envelope also cannot masquerade as v4 by version
// edits alone without its fingerprint going visibly blank.
//
// v5 routes every EMD solve, at every signature size, through the
// block-pricing simplex; v4 used it only from 128 centers up and
// carried that size threshold in the fingerprint. Below 128 centers the
// pivot order changed, so degenerate instances can settle on a
// different equally-optimal basis and produce different last bits under
// an otherwise unchanged fingerprint — the v2/v3 reasoning again, so v4
// envelopes are refused. The threshold field left the fingerprint with
// the knob.
const SnapshotVersion = 5

// SignatureState is one window signature in serializable form.
type SignatureState struct {
	Centers [][]float64 `json:"centers"`
	Weights []float64   `json:"weights"`
}

// IntervalState is one inspection time's bootstrap interval, keyed
// explicitly (JSON objects cannot have int keys).
type IntervalState struct {
	T  int     `json:"t"`
	Lo float64 `json:"lo"`
	Up float64 `json:"up"`
	Pt float64 `json:"point"`
}

// DetectorState is the complete serializable state of one Detector.
type DetectorState struct {
	// Count is the number of bags pushed so far.
	Count int `json:"count"`
	// Window holds the retained signatures, oldest first.
	Window []SignatureState `json:"window"`
	// LogD is the rolling log-EMD matrix over the window (row i column j
	// is the clamped log distance between window signatures i and j).
	LogD [][]float64 `json:"log_d"`
	// History holds the recent intervals the κ_t test still consults.
	History []IntervalState `json:"history"`
	// Bootstrap is the position of the detector's persistent bootstrap
	// shard streams.
	Bootstrap bootstrap.StreamState `json:"bootstrap"`
	// BuilderRNG is the builder's RNG position for randomized builders
	// (k-means, k-medoids); nil for stateless builders.
	BuilderRNG *randx.State `json:"builder_rng,omitempty"`
}

// Snapshot captures the detector's complete state. The detector can keep
// running afterwards; the snapshot is a deep copy.
func (d *Detector) Snapshot() (*DetectorState, error) {
	bs, err := d.est.StreamState()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot bootstrap streams: %w", err)
	}
	st := &DetectorState{
		Count:     d.count,
		Window:    make([]SignatureState, len(d.window)),
		LogD:      make([][]float64, len(d.logD)),
		Bootstrap: bs,
	}
	for i, sig := range d.window {
		c := sig.Clone()
		st.Window[i] = SignatureState{Centers: c.Centers, Weights: c.Weights}
	}
	for i, row := range d.logD {
		st.LogD[i] = append([]float64(nil), row...)
	}
	ts := make([]int, 0, len(d.history))
	for t := range d.history {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		iv := d.history[t]
		st.History = append(st.History, IntervalState{T: t, Lo: iv.Lo, Up: iv.Up, Pt: iv.Point})
	}
	if snap, ok := d.cfg.Builder.(signature.RNGSnapshotter); ok {
		rs := snap.RNGState()
		st.BuilderRNG = &rs
	}
	return st, nil
}

// RestoreSnapshot rewinds the detector to exactly the state st was
// captured at: window, distance matrix, interval history, bootstrap
// shard streams and builder RNG position. The detector must have been
// constructed with the same configuration (and, for randomized builders,
// a factory-fresh builder on the same seed) as the snapshotted one; from
// here its Points are bit-identical to the uninterrupted detector's.
func (d *Detector) RestoreSnapshot(st *DetectorState) error {
	w := d.WindowSize()
	if len(st.Window) > w {
		return fmt.Errorf("core: snapshot window has %d signatures, detector holds at most %d", len(st.Window), w)
	}
	if len(st.LogD) != len(st.Window) {
		return fmt.Errorf("core: snapshot log-distance matrix has %d rows for %d window signatures", len(st.LogD), len(st.Window))
	}
	for i, row := range st.LogD {
		if len(row) != len(st.Window) {
			return fmt.Errorf("core: snapshot log-distance row %d has %d columns, want %d", i, len(row), len(st.Window))
		}
	}
	if st.Count < len(st.Window) {
		return fmt.Errorf("core: snapshot count %d is smaller than its window (%d signatures)", st.Count, len(st.Window))
	}
	for i, sig := range st.Window {
		s := signature.Signature{Centers: sig.Centers, Weights: sig.Weights}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: snapshot window signature %d: %w", i, err)
		}
	}
	snap, stateful := d.cfg.Builder.(signature.RNGSnapshotter)
	if stateful && st.BuilderRNG == nil {
		return fmt.Errorf("core: snapshot lacks builder RNG state but the detector's builder is randomized — snapshot and detector configurations disagree")
	}
	if !stateful && st.BuilderRNG != nil {
		return fmt.Errorf("core: snapshot carries builder RNG state but the detector's builder is stateless — snapshot and detector configurations disagree")
	}

	// All validation passed; from here on mutate in place. Start from the
	// recycled-clean state so leftover buffers are reused, not leaked.
	d.reset(d.cfg.Builder, d.cfg.Seed)
	d.count = st.Count
	for _, sig := range st.Window {
		d.window = append(d.window, signature.Signature{Centers: sig.Centers, Weights: sig.Weights}.Clone())
	}
	for _, row := range st.LogD {
		r := make([]float64, len(row), w)
		copy(r, row)
		d.logD = append(d.logD, r)
	}
	for _, h := range st.History {
		d.history[h.T] = bootstrap.Interval{Lo: h.Lo, Up: h.Up, Point: h.Pt}
	}
	if err := d.est.RestoreStreams(st.Bootstrap); err != nil {
		return err
	}
	if stateful {
		if err := snap.RestoreRNGState(*st.BuilderRNG); err != nil {
			return fmt.Errorf("core: restore builder RNG: %w", err)
		}
	}
	return nil
}

// StreamSnapshot pairs a stream id with its detector state.
type StreamSnapshot struct {
	ID       string        `json:"id"`
	Detector DetectorState `json:"detector"`
}

// EngineSnapshot is the versioned envelope of a whole engine's state:
// one entry per open stream plus the configuration fingerprint restore
// validates against. It is plain data — json.Marshal it to ship engine
// state across processes (Go's JSON float encoding is shortest-exact, so
// the envelope round-trips float64 values bit-for-bit).
type EngineSnapshot struct {
	Version  int   `json:"version"`
	Seed     int64 `json:"seed"`
	Tau      int   `json:"tau"`
	TauPrime int   `json:"tau_prime"`
	// Statistic is the registry NAME of the per-inspection statistic
	// ("kl", "lr", …) — since v4 the statistic's identity in the
	// fingerprint, replacing the v3 "score" int. Both ends of a
	// hand-off must have the named statistic registered.
	Statistic  string  `json:"statistic"`
	Weighting  int     `json:"weighting"`
	RawMass    bool    `json:"raw_mass"`
	LogFloor   float64 `json:"log_floor"`
	Replicates int     `json:"replicates"`
	Alpha      float64 `json:"alpha"`
	BuilderTag string  `json:"builder_tag,omitempty"`
	// Mark is the engine's mutation counter at capture time. Feed it back
	// to Engine.SnapshotDelta (or GET /v1/snapshot?since=mark) to get
	// just the streams that changed after this envelope was cut.
	Mark uint64 `json:"mark,omitempty"`
	// Partial marks an envelope that carries a SUBSET of the source
	// engine's streams (a delta snapshot, a migration extract, or a
	// SplitByStream slice). Partial envelopes merge into a live engine
	// via RestoreStreams; Restore refuses them, because treating a
	// subset as the whole state would silently drop every other stream.
	Partial bool             `json:"partial,omitempty"`
	Streams []StreamSnapshot `json:"streams"`
}

// SplitByStream slices the envelope into one single-stream envelope per
// stream, each carrying the full configuration fingerprint (and the
// source Mark) so it can be validated and restored independently — the
// unit of routing when a fleet rebalances streams one at a time. The
// receiver is not modified; the per-stream envelopes share the
// receiver's DetectorState values (treat them as read-only, like the
// envelope itself).
func (s *EngineSnapshot) SplitByStream() []EngineSnapshot {
	out := make([]EngineSnapshot, len(s.Streams))
	for i := range s.Streams {
		env := *s
		env.Partial = true
		env.Streams = []StreamSnapshot{s.Streams[i]}
		out[i] = env
	}
	return out
}

// ExtractStreams removes the named streams from the envelope and
// returns them as a new partial envelope with the same fingerprint —
// the donor half of a migration: what is extracted is no longer in the
// source envelope, so the same stream state can never be restored in
// two places from one envelope. Extraction errors (an id not present —
// including one already extracted — or a duplicate in ids) leave the
// receiver unchanged.
func (s *EngineSnapshot) ExtractStreams(ids ...string) (*EngineSnapshot, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: ExtractStreams requires at least one stream id")
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("core: ExtractStreams: duplicate stream id %q", id)
		}
		want[id] = true
	}
	out := *s
	out.Partial = true
	out.Streams = make([]StreamSnapshot, 0, len(ids))
	kept := make([]StreamSnapshot, 0, len(s.Streams))
	for _, ss := range s.Streams {
		if want[ss.ID] {
			out.Streams = append(out.Streams, ss)
			delete(want, ss.ID)
		} else {
			kept = append(kept, ss)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for id := range want {
			missing = append(missing, id)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("core: ExtractStreams: stream(s) not in envelope (unknown or already extracted): %s", strings.Join(missing, ", "))
	}
	s.Streams = kept
	return &out, nil
}

// fingerprint returns the envelope carrying cfg's restore-validated
// parameters and no streams.
func (e *Engine) fingerprint() EngineSnapshot {
	t := e.cfg.Template
	return EngineSnapshot{
		Version:    SnapshotVersion,
		Seed:       e.cfg.Seed,
		Tau:        t.Tau,
		TauPrime:   t.TauPrime,
		Statistic:  t.StatisticName(),
		Weighting:  int(t.Weighting),
		RawMass:    t.RawMass,
		LogFloor:   t.LogFloor,
		Replicates: t.Bootstrap.Replicates,
		Alpha:      t.Bootstrap.Alpha,
		BuilderTag: e.cfg.BuilderTag,
	}
}

// ValidateSnapshot checks that snap could be restored onto this engine —
// the schema version is readable and the configuration fingerprint
// (seed, τ, τ′, statistic name, weighting, raw-mass, log-floor,
// replicates, α, builder tag) matches —
// without touching any state. A server front-end
// calls it BEFORE tearing down live streams, so a rejected envelope
// leaves the receiving engine exactly as it was.
func (e *Engine) ValidateSnapshot(snap *EngineSnapshot) error {
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("core: snapshot version %d, this engine reads version %d", snap.Version, SnapshotVersion)
	}
	want := e.fingerprint()
	mismatch := snap.Seed != want.Seed || snap.Tau != want.Tau || snap.TauPrime != want.TauPrime ||
		snap.Statistic != want.Statistic || snap.Weighting != want.Weighting || snap.RawMass != want.RawMass ||
		snap.LogFloor != want.LogFloor || snap.Replicates != want.Replicates || snap.Alpha != want.Alpha ||
		snap.BuilderTag != want.BuilderTag
	if mismatch {
		got := *snap
		got.Streams = nil
		want.Streams = nil
		return fmt.Errorf("core: snapshot configuration %+v does not match engine configuration %+v", got, want)
	}
	return nil
}

// Snapshot serializes the full engine state: every open stream's
// detector, in stream-id order. The caller must have quiesced the engine
// — no pushes may be in flight (a server front-end holds its exclusive
// state lock around this; each stream's own lock is still taken so a
// violated contract corrupts nothing, though it would make WHICH state
// got captured a race).
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	return e.snapshotWhere(nil, false)
}

// SnapshotStreams serializes just the named streams as a partial
// envelope — the capture half of a live migration. Every id must be an
// open stream (unknown ids error before anything is captured); the
// streams stay open on this engine, so the caller that is moving them
// closes them once the envelope is safely shipped.
func (e *Engine) SnapshotStreams(ids ...string) (*EngineSnapshot, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: SnapshotStreams requires at least one stream id")
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("core: SnapshotStreams: duplicate stream id %q", id)
		}
		want[id] = true
	}
	e.mu.Lock()
	for id := range want {
		if _, ok := e.streams[id]; !ok {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: SnapshotStreams: stream %q is not open", id)
		}
	}
	e.mu.Unlock()
	return e.snapshotWhere(func(id string, _ uint64) bool { return want[id] }, true)
}

// SnapshotDelta serializes only the streams mutated after mark (a value
// previously returned in an envelope's Mark field or from Engine.Mark).
// The envelope is Partial — restoring it merges the dirty streams into
// (or refreshes them on) a receiver that already holds the rest — and
// its own Mark is the new high-water value for the next delta. The cost
// scales with the number of dirty streams, not the fleet's total stream
// count; stream CLOSURES are not recorded (a stream evicted since mark
// is simply absent), so receivers reconcile stream death out of band.
func (e *Engine) SnapshotDelta(mark uint64) (*EngineSnapshot, error) {
	return e.snapshotWhere(func(_ string, dirty uint64) bool { return dirty > mark }, true)
}

// snapshotWhere captures the streams keep admits (nil keeps all) into an
// envelope. The engine must be quiesced by the caller, as with Snapshot.
func (e *Engine) snapshotWhere(keep func(id string, dirty uint64) bool, partial bool) (*EngineSnapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: engine is shut down")
	}
	snap := e.fingerprint()
	snap.Mark = e.mark.Load()
	snap.Partial = partial
	ids := make([]string, 0, len(e.streams))
	for id := range e.streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := e.streams[id]
		st.mu.Lock()
		det := st.det
		var ds *DetectorState
		var err error
		if det != nil && (keep == nil || keep(id, st.dirty)) {
			ds, err = det.Snapshot()
		}
		st.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot stream %q: %w", id, err)
		}
		if ds != nil {
			snap.Streams = append(snap.Streams, StreamSnapshot{ID: id, Detector: *ds})
		}
	}
	return &snap, nil
}

// Restore reconstructs the snapshotted streams on this engine: each
// stream is opened (recycling pooled detectors as usual) and its
// detector rewound to the snapshot state, after which every stream is
// bit-identical going forward to one that never stopped. The engine must
// have no open streams (CloseAll first — restore replaces state, it does
// not merge), and its configuration must match the snapshot fingerprint
// (ValidateSnapshot); the builder factory and ground distance are code
// and cannot be fingerprinted directly, so deployments that build them
// from configuration should describe that configuration in
// EngineConfig.BuilderTag — engines with differing tags refuse each
// other's snapshots instead of silently diverging. On error the engine
// may hold a partially restored stream set; CloseAll before retrying.
//
// Cost: restoring RNG stream positions is an exact REPLAY — O(draws
// consumed so far) per bootstrap shard and builder stream, the price of
// bit-identity on the historical stdlib stream (whose internal state is
// not exportable). Streams restore in parallel across the engine's
// worker budget, but a fleet of very long-lived streams still pays
// seconds per ~10⁵ pushes of per-stream history; snapshot/restore is a
// rebalancing primitive, not a hot-path operation.
func (e *Engine) Restore(snap *EngineSnapshot) error {
	if err := e.ValidateSnapshot(snap); err != nil {
		return err
	}
	if snap.Partial {
		return fmt.Errorf("core: envelope is partial (a delta or extracted slice); Restore replaces ALL state — use RestoreStreams to merge it")
	}
	if n := e.Len(); n != 0 {
		return fmt.Errorf("core: restore requires an engine with no open streams, have %d (CloseAll first)", n)
	}
	streams := make([]*Stream, len(snap.Streams))
	for i := range snap.Streams {
		st, err := e.Open(snap.Streams[i].ID)
		if err != nil {
			return fmt.Errorf("core: restore stream %q: %w", snap.Streams[i].ID, err)
		}
		streams[i] = st
	}
	errs := e.rewindStreams(streams, snap.Streams)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: restore stream %q: %w", snap.Streams[i].ID, err)
		}
	}
	return nil
}

// RestoreStreams merges the envelope's streams into this engine — the
// receiving half of a live migration, and the apply half of a delta
// snapshot. The fingerprint must match exactly as for Restore, but the
// engine keeps its other open streams; each restored stream must NOT
// already be open here (a migration that raced a duplicate delivery
// fails loudly instead of silently rewinding a live stream). On any
// error the streams this call opened are closed again, so a refused
// merge leaves the engine exactly as it was. Quiescence contract is
// Restore's: no pushes in flight.
func (e *Engine) RestoreStreams(snap *EngineSnapshot) error {
	if err := e.ValidateSnapshot(snap); err != nil {
		return err
	}
	if len(snap.Streams) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(snap.Streams))
	for i := range snap.Streams {
		id := snap.Streams[i].ID
		if seen[id] {
			return fmt.Errorf("core: RestoreStreams: envelope names stream %q twice", id)
		}
		seen[id] = true
		if _, open := e.Get(id); open {
			return fmt.Errorf("core: RestoreStreams: stream %q is already open on this engine", id)
		}
	}
	streams := make([]*Stream, len(snap.Streams))
	rollback := func(n int) {
		for i := 0; i < n; i++ {
			streams[i].Close()
		}
	}
	for i := range snap.Streams {
		st, err := e.Open(snap.Streams[i].ID)
		if err != nil {
			rollback(i)
			return fmt.Errorf("core: restore stream %q: %w", snap.Streams[i].ID, err)
		}
		streams[i] = st
	}
	errs := e.rewindStreams(streams, snap.Streams)
	for i, err := range errs {
		if err != nil {
			rollback(len(streams))
			return fmt.Errorf("core: restore stream %q: %w", snap.Streams[i].ID, err)
		}
	}
	return nil
}

// rewindStreams rewinds each stream's detector to its snapshot state.
// Detector rewinds are independent per stream and dominated by RNG
// replay, so they fan across the worker budget. Restored streams are
// stamped dirty: relative to any mark taken before the restore, their
// state IS new on this engine.
func (e *Engine) rewindStreams(streams []*Stream, snaps []StreamSnapshot) []error {
	errs := make([]error, len(streams))
	restore := func(i int) {
		st := streams[i]
		st.mu.Lock()
		st.markDirtyLocked()
		errs[i] = st.det.RestoreSnapshot(&snaps[i].Detector)
		st.mu.Unlock()
	}
	workers := e.cfg.Workers
	if workers > len(streams) {
		workers = len(streams)
	}
	if workers <= 1 {
		for i := range streams {
			restore(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(streams) {
						return
					}
					restore(i)
				}
			}()
		}
		wg.Wait()
	}
	return errs
}
