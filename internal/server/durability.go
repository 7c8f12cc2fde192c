// Durability tier: write-ahead oplog recovery/replay, checkpointing,
// and the bounded detector pool that pages idle streams to disk.
//
// The invariants that make the whole thing airtight live in the lock
// discipline, so they are spelled out here once:
//
//   - Push records are ENQUEUED from the engine's apply hook, under the
//     stream's own lock, and made durable (group-commit fsync) before
//     the batch's 200 is written — all while the batch holds the shared
//     phase lock. Per stream, log order therefore equals apply order.
//   - Spill, fault-in, checkpoint, close and restore all hold the
//     EXCLUSIVE phase lock. No push is in flight at those moments, so
//     every applied row's record has already been synced: a spilled
//     envelope or checkpoint can never be AHEAD of the durable log, and
//     compaction after a checkpoint can never delete a record the
//     envelope does not cover.
//   - Replay applies a push record only when its bag_t equals the
//     stream's current count: smaller means the checkpoint or spilled
//     envelope already contains it, larger is a hole the log contract
//     makes impossible (so it fails recovery loudly instead of scoring
//     garbage).
//   - With an oplog, a faulted-in stream KEEPS its spill file until a
//     checkpoint covers the stream: the log suffix after that checkpoint
//     may hold the stream's later pushes but not its base state, which
//     only the file has. Every successful checkpoint deletes the files
//     of streams that are live in it; every path that ends a live
//     stream's life deletes its file after logging the close record.
//
// Net effect: after a SIGKILL, recovery reconstructs exactly the
// acknowledged prefix of every stream — rows whose fsync never
// completed were never 200'd, and their retry lands on the very tick
// the crash rewound to.
package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bag"
	"repro/internal/core"
	"repro/internal/oplog"
)

// initDurability opens the spill store and the oplog (as configured)
// and runs crash recovery. Called from New before the server accepts
// traffic.
func (s *Server) initDurability() error {
	cfg := &s.cfg
	if cfg.MaxResident < 0 {
		return fmt.Errorf("server: MaxResident must be >= 0, got %d", cfg.MaxResident)
	}
	if cfg.EvictBatch < 0 {
		return fmt.Errorf("server: EvictBatch must be >= 0, got %d", cfg.EvictBatch)
	}
	if cfg.MaxEvictPerSweep < 0 {
		return fmt.Errorf("server: MaxEvictPerSweep must be >= 0, got %d", cfg.MaxEvictPerSweep)
	}
	if cfg.SpillDir == "" && cfg.OplogDir != "" {
		// An oplog without a spill store would make eviction DESTROY
		// durable state; default the store next to the log.
		cfg.SpillDir = filepath.Join(cfg.OplogDir, oplog.StreamDirName)
	}
	if cfg.MaxResident > 0 && cfg.SpillDir == "" {
		return fmt.Errorf("server: MaxResident requires SpillDir (or OplogDir) — a bounded pool needs somewhere to page streams out to")
	}
	if cfg.SpillDir != "" {
		store, err := oplog.OpenStreamStore(cfg.SpillDir)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		s.spill = store
		s.met.enablePool(s.eng, s.spillCount, &s.poolPeak)
	}
	if cfg.OplogDir == "" {
		return nil
	}
	hist := s.met.oplogFsyncHistogram()
	l, err := oplog.Open(cfg.OplogDir, oplog.Options{
		SegmentBytes:  cfg.OplogSegmentBytes,
		FsyncObserver: hist.Observe,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.wal = l
	s.met.enableOplog(l)
	if err := s.recover(); err != nil {
		return fmt.Errorf("server: oplog recovery: %w", err)
	}
	return nil
}

// recover rebuilds engine state from the last checkpoint envelope plus
// the oplog suffix, reconciles the spill store, re-applies the pool
// bound, and collapses the result into a fresh checkpoint so the next
// crash replays only its own suffix. Runs before the server serves, so
// no locks are contended.
func (s *Server) recover() error {
	start := s.now()
	blob, ok, err := s.wal.LoadCheckpoint()
	if err != nil {
		return err
	}
	if ok {
		var snap core.EngineSnapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return fmt.Errorf("checkpoint envelope: %w", err)
		}
		if n := s.eng.Len(); n != 0 {
			return fmt.Errorf("engine already has %d open streams; oplog recovery needs a fresh engine", n)
		}
		if err := s.eng.Restore(&snap); err != nil {
			return fmt.Errorf("restoring checkpoint: %w", err)
		}
		s.resetBookkeeping(&snap)
	}
	replayed := 0
	lost := make(map[string]int)
	if err := s.wal.Replay(func(rec oplog.Record) error {
		replayed++
		return s.applyReplay(rec, lost)
	}); err != nil {
		return err
	}
	if len(lost) > 0 {
		ids := make([]string, 0, len(lost))
		for id := range lost {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return fmt.Errorf("stream %q: record bag_t %d but stream is at 0 — the log has a hole", ids[0], lost[ids[0]])
	}
	// The recovery checkpoint also drops the spill files of live streams
	// (see pruneSpillLocked).
	s.enforcePoolBoundLocked()
	if err := s.checkpointAsLocked("recovery", true); err != nil {
		return err
	}
	s.log.Info("oplog recovered",
		"records", replayed,
		"streams", s.eng.Len(),
		"spilled", s.spillCount(),
		"duration", s.now().Sub(start).Seconds())
	return nil
}

// spillCount is the number of spilled (non-resident) streams: spill
// files of live streams, kept until a checkpoint covers them, do not
// count.
func (s *Server) spillCount() int {
	if s.spill == nil {
		return 0
	}
	n := 0
	for _, id := range s.spill.IDs() {
		if _, open := s.eng.Get(id); !open {
			n++
		}
	}
	return n
}

// applyReplay applies one oplog record during recovery. lost collects
// the streams whose base state neither the checkpoint nor a spill file
// holds, keyed to the first bag_t past the stream's clock. That is
// legitimate for a life a later close record ends — the close deleted
// the spill file that held its base, and a closed life leaves nothing to
// rebuild — so the stream's records are skipped until its close. A
// stream still lost when the log ends has a hole.
func (s *Server) applyReplay(rec oplog.Record, lost map[string]int) error {
	switch rec.Op {
	case oplog.OpClose:
		if st, ok := s.eng.Get(rec.Stream); ok {
			st.Close()
		}
		if err := s.dropSpillLocked(rec.Stream); err != nil {
			return err
		}
		delete(lost, rec.Stream)
		s.forget(rec.Stream)
		return nil
	case oplog.OpPush:
		if _, ok := lost[rec.Stream]; ok {
			return nil
		}
		if s.spill != nil && s.spill.Has(rec.Stream) {
			if _, open := s.eng.Get(rec.Stream); !open {
				if err := s.faultInLocked([]string{rec.Stream}); err != nil {
					return err
				}
			}
		}
		seq := 0
		st, open := s.eng.Get(rec.Stream)
		if open {
			seq = st.Seq()
		}
		if rec.BagT < seq {
			return nil // already inside the checkpoint or spilled envelope
		}
		if rec.BagT > seq {
			if !open {
				lost[rec.Stream] = rec.BagT
				return nil
			}
			return fmt.Errorf("stream %q: record bag_t %d but stream is at %d — the log has a hole", rec.Stream, rec.BagT, seq)
		}
		st, err := s.eng.Open(rec.Stream)
		if err != nil {
			return err
		}
		if _, err := st.Push(bag.Bag{T: rec.BagT, Points: rec.Bag}); err != nil {
			return fmt.Errorf("stream %q: replaying bag %d: %w", rec.Stream, rec.BagT, err)
		}
		s.mu.Lock()
		s.ticks[rec.Stream] = rec.BagT + 1
		s.lastPush[rec.Stream] = s.now()
		s.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("unknown oplog op %q", rec.Op)
	}
}

// Checkpoint persists the full engine envelope into the oplog directory
// and compacts the log behind it. No-op without an oplog. It takes the
// exclusive phase lock (pushes quiesce for the duration, as with
// /v1/snapshot); the graceful-drain path and the auto-checkpoint
// trigger both land here.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.state.Lock()
	defer s.state.Unlock()
	return s.checkpointLocked("requested")
}

// checkpointLocked is Checkpoint under an already-held exclusive phase
// lock (or pre-serving quiescence, during recovery).
func (s *Server) checkpointLocked(reason string) error {
	return s.checkpointAsLocked(reason, false)
}

// checkpointAsLocked writes the envelope and compacts. coversAll passes
// the oplog a maximal compaction mark instead of the envelope's own:
// correct exactly when the envelope is known to cover the ENTIRE log
// regardless of record marks — after recovery (every durable record was
// just replayed into this state) and after restore (the envelope
// REPLACES all state, and rewinds the mark counter, so old records'
// marks no longer compare against it).
func (s *Server) checkpointAsLocked(reason string, coversAll bool) error {
	if s.wal == nil {
		return nil
	}
	start := s.now()
	snap, err := s.eng.Snapshot()
	if err != nil {
		return err
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	mark := snap.Mark
	if coversAll {
		mark = ^uint64(0)
	}
	if err := s.wal.Checkpoint(blob, mark); err != nil {
		return err
	}
	if err := s.pruneSpillLocked(); err != nil {
		return err
	}
	s.log.Info("oplog checkpoint",
		"reason", reason,
		"streams", len(snap.Streams),
		"mark", snap.Mark,
		"duration", s.now().Sub(start).Seconds())
	return nil
}

// pruneSpillLocked deletes the spill file of every live stream, once a
// checkpoint holds it. Such a file is either one a fault-in kept, or —
// during recovery — one whose stream was spilled and then came back
// live through replay. Either way the live state is the acknowledged
// truth: when the file was written the two were identical, and only
// the live side can have advanced.
func (s *Server) pruneSpillLocked() error {
	if s.spill == nil {
		return nil
	}
	for _, id := range s.spill.IDs() {
		if _, open := s.eng.Get(id); open {
			if err := s.spill.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropSpillLocked deletes id's spill file, if any. The paths that end a
// stream's life call it after logging the close record, so no file
// outlives a logged close (a later push would fault the dead life back
// in).
func (s *Server) dropSpillLocked(id string) error {
	if s.spill == nil || !s.spill.Has(id) {
		return nil
	}
	return s.spill.Delete(id)
}

// DefaultOplogCheckpointBytes is the auto-checkpoint trigger: once this
// many log bytes accumulate past the last checkpoint, the next push
// kicks off a background checkpoint+compaction.
const DefaultOplogCheckpointBytes = 64 << 20

// maybeCheckpoint fires the background auto-checkpoint when the log has
// grown past the configured trigger. At most one runs at a time.
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.cfg.OplogCheckpointBytes < 0 {
		return
	}
	limit := s.cfg.OplogCheckpointBytes
	if limit == 0 {
		limit = DefaultOplogCheckpointBytes
	}
	if s.wal.BytesSinceCheckpoint() < limit {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.ckptBusy.Store(false)
		if err := s.Checkpoint(); err != nil {
			s.log.Error("auto checkpoint failed", "error", err)
		}
	}()
}

// logCloseLocked appends (and syncs) close records for ids. Callers
// hold the exclusive phase lock, which is what orders the records
// after every acknowledged push of the closing life and before any
// push of the id's next life.
func (s *Server) logCloseLocked(ids ...string) error {
	if s.wal == nil || len(ids) == 0 {
		return nil
	}
	recs := make([]oplog.Record, len(ids))
	mark := s.eng.Mark()
	for i, id := range ids {
		recs[i] = oplog.Record{Op: oplog.OpClose, Stream: id, Mark: mark}
	}
	return s.wal.Append(recs...)
}

// ensureResident acquires the SHARED phase lock with every one of the
// batch's streams resident and the pool bound respected. The check runs
// under the shared lock (where spills cannot happen), so a clean check
// stays true for the whole batch; when a fault-in or an LRU spill is
// needed the shared lock is dropped and the mutation runs under the
// exclusive lock, then the check retries — another batch may have
// consumed the room in between. On success the shared lock is HELD;
// on error it is not.
func (s *Server) ensureResident(ids map[string]struct{}) error {
	for attempt := 0; ; attempt++ {
		s.state.RLock()
		if !s.residencyDebt(ids) {
			return nil
		}
		s.state.RUnlock()
		if attempt >= 3 {
			return fmt.Errorf("streams could not be made resident after %d attempts (pool bound %d thrashing?)", attempt, s.cfg.MaxResident)
		}
		s.state.Lock()
		err := s.makeResidentLocked(ids)
		s.state.Unlock()
		if err != nil {
			return err
		}
	}
}

// residencyDebt reports whether the batch still needs pool work: a
// spilled batch stream, or more newcomers than the bound has room for.
// Called under the shared phase lock.
func (s *Server) residencyDebt(ids map[string]struct{}) bool {
	if s.spill == nil {
		return false
	}
	newcomers := 0
	for id := range ids {
		if _, open := s.eng.Get(id); open {
			continue
		}
		if s.spill.Has(id) {
			return true
		}
		newcomers++
	}
	return s.cfg.MaxResident > 0 && newcomers > 0 && s.eng.Len()+newcomers > s.cfg.MaxResident
}

// makeResidentLocked faults the batch's spilled streams in, first
// spilling least-recently-pushed non-batch streams if the incoming
// newcomers would overflow the pool bound. Callers hold the exclusive
// phase lock. When the batch itself is wider than the bound, everything
// else spills and the bound is transiently exceeded — the alternative
// is refusing valid traffic.
func (s *Server) makeResidentLocked(ids map[string]struct{}) error {
	var faults []string
	newcomers := 0
	for id := range ids {
		if _, open := s.eng.Get(id); open {
			continue
		}
		newcomers++
		if s.spill.Has(id) {
			faults = append(faults, id)
		}
	}
	if s.cfg.MaxResident > 0 {
		if over := s.eng.Len() + newcomers - s.cfg.MaxResident; over > 0 {
			s.spillLRULocked(over, ids)
		}
	}
	sort.Strings(faults)
	return s.faultInLocked(faults)
}

// enforcePoolBoundLocked pages out the least-recently-pushed overflow
// after bulk state arrivals (recovery, restore, adopt).
func (s *Server) enforcePoolBoundLocked() {
	if s.cfg.MaxResident <= 0 || s.spill == nil {
		return
	}
	if over := s.eng.Len() - s.cfg.MaxResident; over > 0 {
		s.spillLRULocked(over, nil)
	}
}

// spillLRULocked spills up to n resident streams, least recently
// pushed first, never touching ids in keep. Callers hold the exclusive
// phase lock.
func (s *Server) spillLRULocked(n int, keep map[string]struct{}) {
	type cand struct {
		id   string
		last time.Time
	}
	resident := s.eng.StreamIDs()
	cands := make([]cand, 0, len(resident))
	s.mu.Lock()
	for _, id := range resident {
		if _, kept := keep[id]; kept {
			continue
		}
		cands = append(cands, cand{id, s.lastPush[id]})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].last.Equal(cands[j].last) {
			return cands[i].last.Before(cands[j].last)
		}
		return cands[i].id < cands[j].id
	})
	if n > len(cands) {
		n = len(cands)
	}
	victims := make([]string, n)
	for i := 0; i < n; i++ {
		victims[i] = cands[i].id
	}
	s.spillStreamsLocked(victims)
}

// spillStreamsLocked serializes each stream's single-stream envelope
// into the spill store and closes it, returning the ids actually
// spilled. A stream whose spill write fails stays resident (and
// counted in bagcpd_pool_spill_errors_total) — losing state to free
// memory is the bug this tier exists to fix. Callers hold the
// exclusive phase lock.
func (s *Server) spillStreamsLocked(ids []string) []string {
	if len(ids) == 0 {
		return nil
	}
	snap, err := s.eng.SnapshotStreams(ids...)
	if err != nil {
		// Only possible if a caller passed a non-open id; nothing was spilled.
		s.met.spillErrors.Add(uint64(len(ids)))
		s.log.Error("spill snapshot failed", "streams", len(ids), "error", err)
		return nil
	}
	parts := snap.SplitByStream()
	spilled := make([]string, 0, len(parts))
	for i := range parts {
		id := parts[i].Streams[0].ID
		blob, err := json.Marshal(&parts[i])
		if err == nil {
			err = s.spill.Put(id, blob)
		}
		if err != nil {
			s.met.spillErrors.Inc()
			s.log.Warn("stream spill failed; keeping it resident", "stream", id, "error", err)
			continue
		}
		if st, ok := s.eng.Get(id); ok {
			st.Close()
		}
		s.forget(id)
		s.met.spills.Inc()
		spilled = append(spilled, id)
	}
	return spilled
}

// faultInLocked restores each spilled stream from its envelope and
// resumes its bookkeeping at the envelope's bag clock. With an oplog the
// spill file stays until a checkpoint covers the stream (see
// pruneSpillLocked): until then it is the only durable copy of the
// stream's base state. Without one nothing replays, so the file goes at
// once. Callers hold the exclusive phase lock (or pre-serving quiescence
// during replay).
func (s *Server) faultInLocked(ids []string) error {
	for _, id := range ids {
		if _, open := s.eng.Get(id); open {
			continue // live state supersedes the file
		}
		blob, ok, err := s.spill.Get(id)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		var env core.EngineSnapshot
		if err := json.Unmarshal(blob, &env); err != nil {
			return fmt.Errorf("spilled stream %q: corrupt envelope: %w", id, err)
		}
		if err := s.eng.RestoreStreams(&env); err != nil {
			return fmt.Errorf("faulting in stream %q: %w", id, err)
		}
		now := s.now()
		s.mu.Lock()
		for i := range env.Streams {
			ss := &env.Streams[i]
			s.ticks[ss.ID] = ss.Detector.Count
			s.lastPush[ss.ID] = now
		}
		s.mu.Unlock()
		if s.wal == nil {
			if err := s.spill.Delete(id); err != nil {
				// The stream is live and correct, and live state supersedes
				// the file; a later spill overwrites it, a close retries the
				// delete.
				s.log.Warn("spill file delete failed after fault-in", "stream", id, "error", err)
			}
		}
		s.met.faultins.Inc()
	}
	s.notePoolPeak()
	return nil
}

// clearSpillLocked empties the spill store — restore replaces ALL
// state, and a stale spill file would otherwise fault an old life of a
// stream back in later.
func (s *Server) clearSpillLocked() error {
	if s.spill == nil {
		return nil
	}
	for _, id := range s.spill.IDs() {
		if err := s.spill.Delete(id); err != nil {
			return err
		}
	}
	return nil
}

// notePoolPeak folds the current residency into the high-water mark.
func (s *Server) notePoolPeak() {
	n := int64(s.eng.Len())
	for {
		old := s.poolPeak.Load()
		if n <= old || s.poolPeak.CompareAndSwap(old, n) {
			return
		}
	}
}
