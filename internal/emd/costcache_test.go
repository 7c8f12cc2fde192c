package emd

import (
	"testing"

	"repro/internal/bag"
	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/testutil"
)

// identityIdx returns [0, 1, ..., n), the srcIdx/dstIdx staging of a
// signature whose weights are all positive (randomSig guarantees that).
func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCostCacheBitIdentity is the cache's core contract as a property
// test: with the cache on, every solve — cold store or warm serve,
// under either ground, on random as well as
// builder-shaped (histogram/grid) signatures — returns floats
// bit-identical to the uncached solver. This is what licenses keeping
// EMDCostCacheSlots out of the snapshot fingerprint.
func TestCostCacheBitIdentity(t *testing.T) {
	rng := randx.New(77)

	hb := signature.NewHistogramBuilder(0, 1, 16)
	mkHist := func(n int) signature.Signature {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		s, err := hb.Build(bag.FromScalars(0, vals))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gb := signature.NewGridBuilder([]float64{-1, -1}, []float64{1, 1}, 4)
	mkGrid := func(n int) signature.Signature {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{2*rng.Float64() - 1, 2*rng.Float64() - 1}
		}
		s, err := gb.Build(bag.New(0, pts))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	type pair struct {
		name string
		s, u signature.Signature
	}
	pairs := []pair{
		{"random-1d", randomSig(rng, 1, 20, 1), randomSig(rng, 1, 20, 1)},
		{"random-2d", randomSig(rng, 2, 24, 1), randomSig(rng, 2, 24, 1)},
		{"random-3d-raw", randomSig(rng, 3, 16, 2.5), randomSig(rng, 3, 16, 0.75)},
		// Histogram bags share bin-midpoint supports: the repeat-heavy
		// shape the cache exists for (one entry serves every solve).
		{"histogram", mkHist(200), mkHist(200)},
		{"grid", mkGrid(120), mkGrid(120)},
	}
	grounds := []struct {
		name string
		g    Ground
	}{{"euclidean", Euclidean}, {"manhattan", Manhattan}}

	for _, gr := range grounds {
		plain := NewSolver()
		cached := NewSolver(WithCostCache(3))
		for _, p := range pairs {
			want, err := plain.Distance(p.s, p.u, gr.g)
			if err != nil {
				t.Fatalf("%s/%s uncached: %v", gr.name, p.name, err)
			}
			// Pass 0 stores the matrix, pass 1 is served from it; both
			// must be exactly the uncached value.
			for pass := 0; pass < 2; pass++ {
				got, err := cached.DistanceCached(p.s, p.u, gr.g)
				if err != nil {
					t.Fatalf("%s/%s cached pass %d: %v", gr.name, p.name, pass, err)
				}
				if got != want {
					t.Fatalf("%s/%s cached pass %d: got %.17g, uncached %.17g (cache must be bit-transparent)",
						gr.name, p.name, pass, got, want)
				}
			}
		}
	}
}

// TestCostCacheWarmResolveZeroGroundEvals pins the amortization claim
// itself: a warm re-solve of the same support pair performs ZERO ground
// evaluations — row fills hit rowDone and the NW-corner basis costs hit
// cellDone.
func TestCostCacheWarmResolveZeroGroundEvals(t *testing.T) {
	rng := randx.New(33)
	sv := NewSolver(WithCostCache(2))
	s := randomSig(rng, 2, 24, 1)
	u := randomSig(rng, 2, 24, 1)

	cold, err := sv.DistanceCached(s, u, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	cs := sv.Stats()
	if cs.GroundEvals == 0 {
		t.Fatal("cold solve performed no ground evaluations")
	}
	if cs.CacheMisses == 0 {
		t.Fatal("cold solve stored nothing into the cache")
	}

	warm, err := sv.DistanceCached(s, u, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatalf("warm %.17g != cold %.17g", warm, cold)
	}
	ws := sv.Stats()
	if ws.GroundEvals != 0 {
		t.Errorf("warm re-solve performed %d ground evals, want 0", ws.GroundEvals)
	}
	if ws.CacheHits == 0 {
		t.Error("warm re-solve served no cells from the cache")
	}
}

// TestCostCacheHashCollisionRejected is the collision-regression test:
// when two distinct support pairs land on the same hash, the bitwise
// support comparison must reject the stored entry (a collision degrades
// to a miss, never a wrong matrix). A natural 64-bit FNV collision is
// unconstructible in a test, so we forge one by rewriting a stored
// entry's fingerprint to the other pair's hash.
func TestCostCacheHashCollisionRejected(t *testing.T) {
	rng := randx.New(99)
	sA, uA := randomSig(rng, 2, 10, 1), randomSig(rng, 2, 10, 1)
	sB, uB := randomSig(rng, 2, 10, 1), randomSig(rng, 2, 10, 1)

	want, err := NewSolver().Distance(sB, uB, Euclidean)
	if err != nil {
		t.Fatal(err)
	}

	cc := NewCostCache(4)
	sv := NewSolver()
	sv.SetCostCache(cc)
	if _, err := sv.DistanceCached(sA, uA, Euclidean); err != nil {
		t.Fatal(err)
	}

	h := supportHash(sB, uB, identityIdx(sB.Len()), identityIdx(uB.Len()), 2)
	forged := 0
	for i := range cc.slots {
		if cc.slots[i].used {
			cc.slots[i].hash = h
			forged++
		}
	}
	if forged == 0 {
		t.Fatal("no used cache entry after a cached solve")
	}

	got, err := sv.DistanceCached(sB, uB, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after forged hash collision: got %.17g, want %.17g — collision check served a wrong matrix", got, want)
	}
	if cc.Stats().Collisions == 0 {
		t.Error("forged hash collision was not counted — the bitwise check never fired")
	}
}

// TestCostCacheLRUEviction cycles more support pairs than the cache has
// slots: entries must be displaced (Evictions > 0) and every re-solve —
// hit or rebuilt-after-eviction — must stay exactly correct.
func TestCostCacheLRUEviction(t *testing.T) {
	rng := randx.New(7)
	cc := NewCostCache(2)
	sv := NewSolver()
	sv.SetCostCache(cc)
	ref := NewSolver()

	type pair struct {
		s, u signature.Signature
		want float64
	}
	var pairs []pair
	for i := 0; i < 5; i++ {
		s, u := randomSig(rng, 2, 9, 1), randomSig(rng, 2, 9, 1)
		w, err := ref.Distance(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{s, u, w})
	}
	for round := 0; round < 2; round++ {
		for i, p := range pairs {
			got, err := sv.DistanceCached(p.s, p.u, Euclidean)
			if err != nil {
				t.Fatal(err)
			}
			if got != p.want {
				t.Fatalf("round %d pair %d: got %.17g, want %.17g", round, i, got, p.want)
			}
		}
	}
	st := cc.Stats()
	if st.Evictions == 0 {
		t.Errorf("5 pairs through %d slots: no evictions recorded (stats %+v)", cc.Slots(), st)
	}
	if st.Misses < 5 {
		t.Errorf("misses = %d, want >= 5 (each distinct pair must miss at least once)", st.Misses)
	}
}

// TestCostCacheGroundSwitchFlush changes the ground function between
// solves of the same pair: entries priced under Euclidean are wrong for
// Manhattan, so the cache must flush (keyed on the ground's code
// pointer) rather than serve stale rows.
func TestCostCacheGroundSwitchFlush(t *testing.T) {
	rng := randx.New(5)
	s, u := randomSig(rng, 3, 12, 1), randomSig(rng, 3, 12, 1)
	ref := NewSolver()
	we, err := ref.Distance(s, u, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := ref.Distance(s, u, Manhattan)
	if err != nil {
		t.Fatal(err)
	}

	sv := NewSolver(WithCostCache(2))
	if got, err := sv.DistanceCached(s, u, Euclidean); err != nil || got != we {
		t.Fatalf("euclidean: got %.17g (err %v), want %.17g", got, err, we)
	}
	got, err := sv.DistanceCached(s, u, Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if got != wm {
		t.Fatalf("manhattan after euclidean: got %.17g, want %.17g — stale entries served across a ground switch", got, wm)
	}
	st := sv.Stats()
	if st.GroundEvals == 0 {
		t.Error("ground switch must recompute costs, performed 0 ground evals")
	}
	if st.CacheHits != 0 {
		t.Errorf("ground switch served %d cells from the flushed cache, want 0", st.CacheHits)
	}
}

// TestCostCachePrewarmAfterUseStaysCorrect is the regression test for a
// Prewarm-corruption bug: growing a used entry's cost buffer reallocates
// zeroed memory, but the survived rowDone flags still claimed the rows
// were priced, so a post-use Prewarm to a larger k made warm re-solves
// return 0. Prewarm must instead invalidate any live entry whose buffers
// move (a miss, never a wrong matrix), and keep entries warm when the
// buffers already have capacity.
func TestCostCachePrewarmAfterUseStaysCorrect(t *testing.T) {
	rng := randx.New(4242)
	// Asymmetric supports (64×4) make the cost buffer (m0·n0 = 256
	// floats) smaller than the post-Prewarm k·k requirement while rowDone
	// (cap 64) already covers it — the exact mismatch that corrupted.
	s := randomSig(rng, 2, 64, 1)
	u := randomSig(rng, 2, 4, 1)
	want, err := NewSolver().Distance(s, u, Euclidean)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("grow-invalidates", func(t *testing.T) {
		sv := NewSolver(WithCostCache(2))
		if got, err := sv.DistanceCached(s, u, Euclidean); err != nil || got != want {
			t.Fatalf("cold solve: got %.17g (err %v), want %.17g", got, err, want)
		}
		sv.Prewarm(20) // 20·20 > 64·4: reallocates cost, keeps rowDone
		got, err := sv.DistanceCached(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("re-solve after post-use Prewarm: got %.17g, want %.17g — Prewarm served zeroed costs as cached", got, want)
		}
		if st := sv.Stats(); st.GroundEvals == 0 {
			t.Error("grown entry must be repriced, performed 0 ground evals")
		}
	})

	t.Run("no-grow-keeps-warm", func(t *testing.T) {
		sv := NewSolver(WithCostCache(2))
		if got, err := sv.DistanceCached(s, u, Euclidean); err != nil || got != want {
			t.Fatalf("cold solve: got %.17g (err %v), want %.17g", got, err, want)
		}
		// Every buffer already has capacity for k=4, dim=2: the live
		// entry must survive and the re-solve stay a zero-eval hit.
		sv.CostCache().Prewarm(4, 2)
		got, err := sv.DistanceCached(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("re-solve after no-op Prewarm: got %.17g, want %.17g", got, want)
		}
		if st := sv.Stats(); st.GroundEvals != 0 {
			t.Errorf("capacity-covered Prewarm dropped a warm entry: %d ground evals, want 0", st.GroundEvals)
		}
	})
}

// TestPrewarmedSolverFirstDistanceCachedZeroAllocs extends the Prewarm
// zero-alloc guarantee to the cached entry point: a fresh solver with an
// attached cache that was Prewarmed for the signature size must not
// allocate even on its FIRST DistanceCached — including the cache's own
// store of the full cost matrix (per-worker solvers in the detector and
// the pairwise tiles rely on this).
func TestPrewarmedSolverFirstDistanceCachedZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("K=256 solves are slow under -short")
	}
	const k = 256
	rng := randx.New(1024)
	s := randomSig(rng, 2, k, 1)
	u := randomSig(rng, 2, k, 1)

	const runs = 3
	fresh := make([]*Solver, 0, runs+1)
	for i := 0; i < cap(fresh); i++ {
		sv := NewSolver()
		sv.SetCostCache(NewCostCache(0))
		sv.Prewarm(k) // prewarms the attached cache too
		fresh = append(fresh, sv)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		sv := fresh[next]
		next++
		if _, err := sv.DistanceCached(s, u, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("first DistanceCached after Prewarm(%d): %g allocs/op, want 0", k, allocs)
	}
}
