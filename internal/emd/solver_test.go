package emd

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/signature"
	"repro/internal/testutil"
)

// referenceSolveTransport is the seed implementation of the
// transportation simplex, kept verbatim as an independent oracle for the
// rewritten allocation-free solver: northwest-corner start, full-matrix
// Dantzig pricing, per-iteration allocation of all scratch.
func referenceSolveTransport(supply, demand []float64, cost [][]float64) (flow [][]float64, totalCost float64, err error) {
	m, n := len(supply), len(demand)
	if m == 0 || n == 0 {
		return nil, 0, errEmpty
	}
	totS, totD := 0.0, 0.0
	for _, v := range supply {
		totS += v
	}
	for _, v := range demand {
		totD += v
	}
	if math.Abs(totS-totD) > 1e-9*math.Max(totS, totD)+1e-300 {
		return nil, 0, errUnbalanced
	}

	eps := totS * 1e-11
	if eps == 0 {
		eps = 1e-11
	}
	a := make([]float64, m)
	b := make([]float64, n)
	for i := range a {
		a[i] = supply[i] + eps
	}
	copy(b, demand)
	b[n-1] += float64(m) * eps

	type basicCell struct {
		i, j int
		f    float64
	}
	basis := make([]basicCell, 0, m+n-1)
	ra, rb := make([]float64, m), make([]float64, n)
	copy(ra, a)
	copy(rb, b)
	for i, j := 0, 0; ; {
		f := math.Min(ra[i], rb[j])
		if f < 0 {
			f = 0
		}
		basis = append(basis, basicCell{i, j, f})
		ra[i] -= f
		rb[j] -= f
		if i == m-1 && j == n-1 {
			break
		}
		switch {
		case j == n-1:
			i++
		case i == m-1:
			j++
		case ra[i] <= rb[j]:
			i++
		default:
			j++
		}
	}
	if len(basis) != m+n-1 {
		return nil, 0, errInternal
	}

	u := make([]float64, m)
	v := make([]float64, n)
	uSet := make([]bool, m)
	vSet := make([]bool, n)
	rowAdj := make([][]int, m)
	colAdj := make([][]int, n)
	maxCost := 0.0
	for i := range cost {
		for _, c := range cost[i] {
			if c > maxCost {
				maxCost = c
			}
		}
	}
	tol := 1e-10 * (1 + maxCost)

	maxIters := 200 + 20*m*n
	for iter := 0; ; iter++ {
		if iter > maxIters {
			return nil, 0, errInternal
		}
		for i := range rowAdj {
			rowAdj[i] = rowAdj[i][:0]
		}
		for j := range colAdj {
			colAdj[j] = colAdj[j][:0]
		}
		for bi, c := range basis {
			rowAdj[c.i] = append(rowAdj[c.i], bi)
			colAdj[c.j] = append(colAdj[c.j], bi)
		}
		for i := range uSet {
			uSet[i] = false
		}
		for j := range vSet {
			vSet[j] = false
		}
		u[0], uSet[0] = 0, true
		queue := make([]int, 0, m+n)
		queue = append(queue, 0)
		for len(queue) > 0 {
			node := queue[0]
			queue = queue[1:]
			if node < m {
				i := node
				for _, bi := range rowAdj[i] {
					j := basis[bi].j
					if !vSet[j] {
						v[j] = cost[i][j] - u[i]
						vSet[j] = true
						queue = append(queue, m+j)
					}
				}
			} else {
				j := node - m
				for _, bi := range colAdj[j] {
					i := basis[bi].i
					if !uSet[i] {
						u[i] = cost[i][j] - v[j]
						uSet[i] = true
						queue = append(queue, i)
					}
				}
			}
		}
		for i := range uSet {
			if !uSet[i] {
				return nil, 0, errInternal
			}
		}
		for j := range vSet {
			if !vSet[j] {
				return nil, 0, errInternal
			}
		}

		enterI, enterJ := -1, -1
		worst := -tol
		for i := 0; i < m; i++ {
			ci := cost[i]
			ui := u[i]
			for j := 0; j < n; j++ {
				if r := ci[j] - ui - v[j]; r < worst {
					worst = r
					enterI, enterJ = i, j
				}
			}
		}
		if enterI == -1 {
			break
		}

		parentEdge := make([]int, m+n)
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		visited := make([]bool, m+n)
		visited[enterI] = true
		queue = queue[:0]
		queue = append(queue, enterI)
		found := false
		for len(queue) > 0 && !found {
			node := queue[0]
			queue = queue[1:]
			if node < m {
				i := node
				for _, bi := range rowAdj[i] {
					nj := m + basis[bi].j
					if !visited[nj] {
						visited[nj] = true
						parentEdge[nj] = bi
						if nj == m+enterJ {
							found = true
							break
						}
						queue = append(queue, nj)
					}
				}
			} else {
				j := node - m
				for _, bi := range colAdj[j] {
					ni := basis[bi].i
					if !visited[ni] {
						visited[ni] = true
						parentEdge[ni] = bi
						queue = append(queue, ni)
					}
				}
			}
		}
		if !found {
			return nil, 0, errInternal
		}
		var path []int
		node := m + enterJ
		for node != enterI {
			bi := parentEdge[node]
			path = append(path, bi)
			c := basis[bi]
			if node == m+c.j {
				node = c.i
			} else {
				node = m + c.j
			}
		}
		theta := math.Inf(1)
		leave := -1
		for p := 0; p < len(path); p += 2 {
			bi := path[p]
			if basis[bi].f < theta {
				theta = basis[bi].f
				leave = bi
			}
		}
		if leave == -1 {
			return nil, 0, errInternal
		}
		for p, bi := range path {
			if p%2 == 0 {
				basis[bi].f -= theta
				if basis[bi].f < 0 {
					basis[bi].f = 0
				}
			} else {
				basis[bi].f += theta
			}
		}
		basis[leave] = basicCell{enterI, enterJ, theta}
	}

	flow = make([][]float64, m)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	clamp := eps * float64(m+n) * 4
	for _, c := range basis {
		f := c.f
		if f <= clamp {
			continue
		}
		flow[c.i][c.j] = f
		totalCost += f * cost[c.i][c.j]
	}
	return flow, totalCost, nil
}

var (
	errEmpty      = errString("empty")
	errUnbalanced = errString("unbalanced")
	errInternal   = errString("internal")
)

type errString string

func (e errString) Error() string { return string(e) }

// referenceEMD runs the full legacy DistanceFlow pipeline (zero-weight
// filtering, dummy balancing, reference simplex) and returns the EMD.
func referenceEMD(t *testing.T, s, u signature.Signature, g Ground) float64 {
	t.Helper()
	if g == nil {
		g = Euclidean
	}
	var sc, tc [][]float64
	var sw, tw []float64
	for i, w := range s.Weights {
		if w > 0 {
			sc = append(sc, s.Centers[i])
			sw = append(sw, w)
		}
	}
	for i, w := range u.Weights {
		if w > 0 {
			tc = append(tc, u.Centers[i])
			tw = append(tw, w)
		}
	}
	m, n := len(sw), len(tw)
	cost := make([][]float64, m)
	totS, totT := 0.0, 0.0
	for _, w := range sw {
		totS += w
	}
	for _, w := range tw {
		totT += w
	}
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = g(sc[i], tc[j])
		}
	}
	supply := append([]float64(nil), sw...)
	demand := append([]float64(nil), tw...)
	diff := totS - totT
	const relTol = 1e-12
	if diff > relTol*math.Max(totS, totT) {
		demand = append(demand, diff)
		for i := range cost {
			cost[i] = append(cost[i], 0)
		}
	} else if -diff > relTol*math.Max(totS, totT) {
		supply = append(supply, -diff)
		cost = append(cost, make([]float64, n))
	} else if diff > 0 {
		demand[n-1] += diff
	} else if diff != 0 {
		supply[m-1] -= diff
	}
	_, totalCost, err := referenceSolveTransport(supply, demand, cost)
	if err != nil {
		t.Fatalf("reference solver: %v", err)
	}
	amount := math.Min(totS, totT)
	if amount <= 0 {
		return 0
	}
	return totalCost / amount
}

// TestSolverMatchesReferenceImplementation cross-checks the rewritten
// allocation-free Solver against the seed implementation on random
// signature pairs across sizes, dimensions, and balanced/unbalanced mass.
func TestSolverMatchesReferenceImplementation(t *testing.T) {
	rng := randx.New(1234)
	sv := NewSolver()
	for trial := 0; trial < 400; trial++ {
		dim := 1 + rng.Intn(4)
		maxLen := 1 + rng.Intn(12)
		totalS, totalT := 1.0, 1.0
		if trial%3 == 1 {
			// Unbalanced: partial matching through the dummy node.
			totalS = 0.5 + rng.Float64()*4
			totalT = 0.5 + rng.Float64()*4
		}
		s := randomSig(rng, dim, maxLen, totalS)
		u := randomSig(rng, dim, maxLen, totalT)

		want := referenceEMD(t, s, u, Euclidean)

		got, err := sv.Distance(s, u, Euclidean)
		if err != nil {
			t.Fatalf("trial %d: Solver.Distance: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (dim=%d): Solver.Distance %.15g vs reference %.15g", trial, dim, got, want)
		}

		res, err := sv.DistanceFlow(s, u, Euclidean)
		if err != nil {
			t.Fatalf("trial %d: Solver.DistanceFlow: %v", trial, err)
		}
		if math.Abs(res.EMD-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: Solver.DistanceFlow %.15g vs reference %.15g", trial, res.EMD, want)
		}

		// The pooled package-level entry points must agree too.
		pkg, err := Distance(s, u, Manhattan)
		if err != nil {
			t.Fatalf("trial %d: Distance: %v", trial, err)
		}
		wantL1 := referenceEMD(t, s, u, Manhattan)
		if math.Abs(pkg-wantL1) > 1e-9*(1+wantL1) {
			t.Fatalf("trial %d: Distance(L1) %.15g vs reference %.15g", trial, pkg, wantL1)
		}
	}
}

// TestSolver1DFastPathMatchesSimplex checks the closed-form 1-D path
// against the general simplex on balanced 1-D instances, through both the
// Solver API and the package API.
func TestSolver1DFastPathMatchesSimplex(t *testing.T) {
	rng := randx.New(4321)
	sv := NewSolver()
	for trial := 0; trial < 300; trial++ {
		s := randomSig(rng, 1, 1+rng.Intn(10), 1)
		u := randomSig(rng, 1, 1+rng.Intn(10), 1)
		fast, err := sv.Distance(s, u, Euclidean) // takes the closed form
		if err != nil {
			t.Fatal(err)
		}
		res, err := sv.DistanceFlow(s, u, Euclidean) // always simplex
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-res.EMD) > 1e-7*(1+fast) {
			t.Fatalf("trial %d: fast path %g vs simplex %g", trial, fast, res.EMD)
		}
	}
}

// TestExplicitEuclideanTakesFastPath documents the Distance contract: an
// explicit emd.Euclidean ground must produce exactly the same value as
// the nil (auto) ground on balanced 1-D signatures — both take the exact
// closed form.
func TestExplicitEuclideanTakesFastPath(t *testing.T) {
	rng := randx.New(99)
	for trial := 0; trial < 100; trial++ {
		s := randomSig(rng, 1, 8, 1)
		u := randomSig(rng, 1, 8, 1)
		auto, err := Distance(s, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := Distance(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if auto != explicit {
			t.Fatalf("trial %d: nil ground %.17g != explicit Euclidean %.17g", trial, auto, explicit)
		}
		closed, err := Distance1D(s, u)
		if err != nil {
			t.Fatal(err)
		}
		if explicit != closed {
			t.Fatalf("trial %d: explicit Euclidean %.17g != Distance1D %.17g", trial, explicit, closed)
		}
	}
}

// TestSolverReuseAcrossSizes stresses buffer reuse: interleave problems of
// very different sizes and dimensions on one Solver. The pricing queues
// and cursors are reset per solve, so the warm solver must return the
// same bits as a fresh one: no history leaks between calls.
func TestSolverReuseAcrossSizes(t *testing.T) {
	rng := randx.New(777)
	sv := NewSolver()
	sizes := []int{1, 30, 2, 18, 64, 3}
	for trial := 0; trial < 60; trial++ {
		k := sizes[trial%len(sizes)]
		dim := 1 + trial%3
		s := randomSig(rng, dim, k, 1+rng.Float64())
		u := randomSig(rng, dim, k, 1+rng.Float64())
		got, err := sv.Distance(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceEMD(t, s, u, Euclidean)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d (K=%d): %.15g vs %.15g", trial, k, got, want)
		}
		fresh, err := NewSolver().Distance(s, u, Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Fatalf("trial %d (K=%d): warm solver %.17g != fresh solver %.17g", trial, k, got, fresh)
		}
	}
}

// TestWarmSolverDistanceZeroAllocs is the allocation-regression guard for
// the tentpole: a warm Solver computes simplex distances and 1-D
// closed-form distances without a single heap allocation.
func TestWarmSolverDistanceZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := randx.New(5)
	sv := NewSolver()
	s2 := randomSig(rng, 2, 24, 1)
	u2 := randomSig(rng, 2, 24, 1)
	s1 := randomSig(rng, 1, 24, 1)
	u1 := randomSig(rng, 1, 24, 1)
	// Warm the buffers.
	if _, err := sv.Distance(s2, u2, Euclidean); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Distance(s1, u1, Euclidean); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sv.Distance(s2, u2, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Solver.Distance (simplex): %g allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sv.Distance(s1, u1, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Solver.Distance (1-D fast path): %g allocs/op, want 0", allocs)
	}
}

// TestPrewarmedSolverFirstDistanceZeroAllocs guards the Prewarm hook:
// a freshly constructed Solver that is Prewarmed for the problem size
// must not allocate even on its FIRST Distance call — that is the whole
// point of the hook for per-worker solvers in batch drivers. Each run
// consumes a brand-new prewarmed solver so every measured call is a
// first call (AllocsPerRun's internal warm-up run included).
func TestPrewarmedSolverFirstDistanceZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxLen = 24
	rng := randx.New(9)
	s2 := randomSig(rng, 2, maxLen, 1)
	u2 := randomSig(rng, 2, maxLen, 1)
	s1 := randomSig(rng, 1, maxLen, 1)
	u1 := randomSig(rng, 1, maxLen, 1)

	const runs = 20
	fresh := make([]*Solver, 0, 2*(runs+1)+2)
	for i := 0; i < cap(fresh); i++ {
		sv := NewSolver()
		sv.Prewarm(maxLen)
		fresh = append(fresh, sv)
	}
	next := 0
	take := func() *Solver { sv := fresh[next]; next++; return sv }

	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := take().Distance(s2, u2, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("first Distance (simplex) after Prewarm: %g allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := take().Distance(s1, u1, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("first Distance (1-D fast path) after Prewarm: %g allocs/op, want 0", allocs)
	}

	// Prewarm must not perturb results: a prewarmed solver and the pooled
	// package function agree bit-for-bit.
	want, err := Distance(s2, u2, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := take().Distance(s2, u2, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("prewarmed solver Distance = %g, pooled = %g", got, want)
	}
}

// TestPooledDistanceSteadyStateAllocs guards the package-level wrapper:
// after warmup the sync.Pool rental must not allocate either.
func TestPooledDistanceSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := randx.New(6)
	s := randomSig(rng, 2, 16, 1)
	u := randomSig(rng, 2, 16, 1)
	for i := 0; i < 5; i++ {
		if _, err := Distance(s, u, Euclidean); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := Distance(s, u, Euclidean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("pooled Distance: %g allocs/op, want 0", allocs)
	}
}
