package emd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/testutil"
)

// TestDistanceMatchesReferenceLargeK pits the simplex against the
// retained seed-reference simplex at sizes where one refill covers only
// a fraction of the pricing blocks.
func TestDistanceMatchesReferenceLargeK(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances are slow under -short")
	}
	rng := randx.New(77)
	sv := NewSolver()
	for _, k := range []int{130, 160, 200} {
		s := randomSig(rng, 2, k, 1)
		u := randomSig(rng, 2, k, 1)
		want := referenceEMD(t, s, u, Euclidean)
		got, err := sv.Distance(s, u, Euclidean)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("K=%d: simplex %.15g vs reference %.15g", k, got, want)
		}
	}
}

// TestPricingBlockInvariantCost checks that the pricing block size is a
// pure throughput knob for the optimal cost: any block size must reach
// the same objective (to rounding).
func TestPricingBlockInvariantCost(t *testing.T) {
	rng := randx.New(33)
	s := randomSig(rng, 3, 60, 1.5)
	u := randomSig(rng, 3, 60, 0.8)
	base, err := NewSolver().Distance(s, u, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 3, 7, 16, 64, 1024} {
		got, err := NewSolver(WithPricingBlock(b)).Distance(s, u, Euclidean)
		if err != nil {
			t.Fatalf("block=%d: %v", b, err)
		}
		if math.Abs(got-base) > 1e-9*(1+base) {
			t.Fatalf("block=%d: %.15g vs default-block %.15g", b, got, base)
		}
	}
}

// TestDistanceFlowLargePath checks the flow variant on unbalanced
// instances: the flow matrix must satisfy the transportation
// constraints and price out to the returned cost.
func TestDistanceFlowLargePath(t *testing.T) {
	rng := randx.New(34)
	sv := NewSolver()
	for trial := 0; trial < 60; trial++ {
		s := randomSig(rng, 2, 4+rng.Intn(10), 1+rng.Float64()*2)
		u := randomSig(rng, 2, 4+rng.Intn(10), 1+rng.Float64()*2)
		res, err := sv.DistanceFlow(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceEMD(t, s, u, Euclidean)
		if math.Abs(res.EMD-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: DistanceFlow EMD %.15g vs reference %.15g", trial, res.EMD, want)
		}
		wantAmount := math.Min(s.TotalWeight(), u.TotalWeight())
		if math.Abs(res.Amount-wantAmount) > 1e-9*(1+wantAmount) {
			t.Fatalf("trial %d: amount %g, want %g", trial, res.Amount, wantAmount)
		}
		// Row sums must not exceed the (filtered) supplies.
		ri := 0
		for _, w := range s.Weights {
			if w <= 0 {
				continue
			}
			sum := 0.0
			for _, f := range res.Flow[ri] {
				if f < 0 {
					t.Fatalf("trial %d: negative flow %g", trial, f)
				}
				sum += f
			}
			if sum > w+1e-6*(1+w) {
				t.Fatalf("trial %d: row %d ships %g > supply %g", trial, ri, sum, w)
			}
			ri++
		}
	}
}

// TestWarmDistanceZeroAllocsK256 is the large-K allocation guard: a
// warm solver computes K=256 distances without a single heap
// allocation, just like at small K (TestWarmSolverDistanceZeroAllocs).
func TestWarmDistanceZeroAllocsK256(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("K=256 solves are slow under -short")
	}
	rng := randx.New(256)
	s := randomSig(rng, 2, 256, 1)
	u := randomSig(rng, 2, 256, 1)
	sv := NewSolver()
	if _, err := sv.Distance(s, u, Euclidean); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := sv.Distance(s, u, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Distance at K=256: %g allocs/op, want 0", allocs)
	}
}

// TestPrewarmedSolverFirstDistanceZeroAllocsK256 extends the Prewarm
// guarantee (TestPrewarmedSolverFirstDistanceZeroAllocs) to K=256: a
// fresh solver that was Prewarmed for the signature size must not
// allocate even on its FIRST distance (per-worker solvers in the tiled
// pairwise engine rely on this at large K).
func TestPrewarmedSolverFirstDistanceZeroAllocsK256(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("K=256 solves are slow under -short")
	}
	const k = 256
	rng := randx.New(512)
	s := randomSig(rng, 2, k, 1)
	u := randomSig(rng, 2, k, 1)

	const runs = 3
	fresh := make([]*Solver, 0, runs+1)
	for i := 0; i < cap(fresh); i++ {
		sv := NewSolver()
		sv.Prewarm(k)
		fresh = append(fresh, sv)
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		sv := fresh[next]
		next++
		if _, err := sv.Distance(s, u, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("first Distance after Prewarm(%d): %g allocs/op, want 0", k, allocs)
	}
}

// solveTransport solves the balanced transportation problem
//
//	min Σ f_ij c_ij   s.t.  Σ_j f_ij = supply_i, Σ_i f_ij = demand_j, f >= 0
//
// on the Solver's simplex with a caller-supplied dense cost matrix and
// returns the optimal flow matrix and objective. Every cost row is
// staged as already computed, so the lazy row fill never runs. Unlike
// Distance, which always stages a balanced, non-empty problem, it
// reaches the simplex's own emptiness and balance checks.
func solveTransport(supply, demand []float64, cost [][]float64) (flow [][]float64, totalCost float64, err error) {
	m, n := len(supply), len(demand)
	sv := NewSolver()
	sv.m, sv.n = m, n
	sv.supply = append([]float64(nil), supply...)
	sv.demand = append([]float64(nil), demand...)
	sv.cost = make([]float64, m*n)
	sv.rowReady = make([]bool, m)
	for i := 0; i < m; i++ {
		if len(cost[i]) != n {
			return nil, 0, fmt.Errorf("emd: cost row %d has %d columns, want %d", i, len(cost[i]), n)
		}
		copy(sv.cost[i*n:(i+1)*n], cost[i])
		for _, c := range cost[i] {
			sv.maxCost = math.Max(sv.maxCost, c)
		}
		sv.rowReady[i] = true
	}
	totalCost, err = sv.solve()
	if err != nil {
		return nil, 0, err
	}
	flow = make([][]float64, m)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	clamp := sv.flowClamp()
	for k := range sv.basisF {
		if f := sv.basisF[k]; f > clamp {
			flow[sv.basisI[k]][sv.basisJ[k]] = f
		}
	}
	return flow, totalCost, nil
}
