package emd

import (
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/signature"
)

// DefaultPricingBlock is the number of consecutive cost-matrix rows one
// pricing block covers. A refill scans blocks cyclically from where the
// previous refill stopped and stops once it has a candidate and has
// refreshed a quarter of the rows, so the steady-state refill cost is a
// fraction of a full O(m·n) sweep. Override per Solver with
// WithPricingBlock.
const DefaultPricingBlock = 16

// A SolverOption configures a Solver at construction.
type SolverOption func(*Solver)

// WithPricingBlock sets the number of rows per pricing block (0 keeps
// DefaultPricingBlock). Every block size reaches the same optimal cost
// to rounding, but the block size selects which optimal basis
// degenerate instances settle on — the returned distances can differ in
// the last bits — so it must be held fixed where bit-identity is
// promised.
func WithPricingBlock(rows int) SolverOption {
	return func(sv *Solver) {
		if rows > 0 {
			sv.priceB = rows
		}
	}
}

// WithCostCache attaches a fresh ground-cost cache with the given number
// of slots at construction (<= 0 selects DefaultCostCacheSlots). Unlike
// the block-size knob, caching is bit-transparent —
// every solve produces the identical floats with the cache on or off —
// so it never participates in snapshot fingerprints.
//
// Caching requires the ground function to be pure and identified by its
// code pointer: two closures sharing code but capturing different state
// (e.g. from a scaled-metric factory) look identical to the cache and
// would share entries, yielding wrong distances. Pass package-level
// functions, or a distinct function per parameterization.
func WithCostCache(slots int) SolverOption {
	return func(sv *Solver) { sv.cache = NewCostCache(slots) }
}

// SetCostCache attaches c to the solver — every subsequent solve
// (Distance, DistanceValidated, DistanceFlow, DistanceCached) consults it. Passing nil detaches caching. Batch
// drivers that Prewarm share nothing: the cache, like the solver, must
// be per-worker.
func (sv *Solver) SetCostCache(c *CostCache) { sv.cache = c }

// CostCache returns the attached cache, nil if none.
func (sv *Solver) CostCache() *CostCache { return sv.cache }

// Solver is a reusable transportation-simplex workspace. All scratch
// state — the flat row-major cost matrix, the basis tree, the MODI
// potentials, the pricing queues and the BFS buffers — is owned by the
// Solver and recycled across calls, so a warm Solver computes EMDs with
// zero steady-state allocations (Distance) or a single output
// allocation (DistanceFlow). The simplex (simplex.go) computes cost
// rows lazily as pricing first touches them and refills candidates one
// block of rows at a time, resuming where the previous refill stopped.
//
// A Solver is not safe for concurrent use; give each goroutine its own
// (the package-level Distance/DistanceFlow functions rent Solvers from a
// sync.Pool and remain safe to call from anywhere).
type Solver struct {
	// Filtered problem: indices of the >0-weight entries of each input.
	srcIdx, dstIdx []int
	supply, demand []float64

	// Problem dimensions including the balancing dummy row/column.
	m, n int
	// cost is the m×n ground-cost matrix, row-major with stride n.
	cost    []float64
	maxCost float64
	// eps is the Charnes perturbation applied by the last solve; flows at
	// or below eps·(m+n)·4 are perturbation residue, not real transport.
	eps float64

	// Basis: exactly m+n−1 cells (i, j, flow).
	basisI, basisJ []int
	basisF         []float64

	// Basis-tree adjacency as intrusive linked lists over basis entries.
	rowHead, colHead []int // first basis index per row/col, −1 if none
	rowNext, colNext []int // next basis index in the same row/col

	// MODI potentials and their solved-flags.
	u, v       []float64
	uSet, vSet []bool

	// BFS queue over the m+n tree nodes, and the pivot cycle.
	queue []int
	path  []int

	// Scratch for the 1-D closed-form fast path.
	events []ev1d

	// Rows per pricing block (0 = DefaultPricingBlock).
	priceB int

	// Lazy cost-matrix state: the ground function and the filtered
	// center views it is evaluated over, per-row computed flags, the
	// real (non-dummy) column count, and whether a dummy column exists.
	// cost rows are filled on first touch by a pricing block; basis-cell
	// costs are carried separately in basisC so building the initial
	// basis never forces whole rows.
	lazyG        Ground
	lazySrcC     [][]float64
	lazyDstC     [][]float64
	rowReady     []bool
	lazyN0       int
	lazyDummyCol bool

	// basisC[k] is the ground cost of basis cell k; potentials and the
	// objective read it instead of the cost matrix.
	basisC []float64

	// blockCur is the pricing-block cursor: the next refill resumes
	// scanning at this block, wrapping around, and only a refill that
	// sweeps every block without finding a candidate proves optimality.
	blockCur int

	// Rooted basis-tree structure: parent node and
	// connecting basis arc per tree node (rows are nodes [0,m), columns
	// [m,m+n)), plus BFS depth. Maintained incrementally per pivot so a
	// pivot costs O(cycle + detached subtree) instead of two O(m+n)
	// whole-tree sweeps.
	parentNode []int
	parentArc  []int
	depth      []int
	// Cycle scratch: the entering cell's two tree-path halves.
	cycA, cycB []int

	// --- Cost amortization (CostCache) ----------------------------------

	// cache is the attached ground-cost cache (nil = no caching). cEnt is
	// the entry checked out for the in-flight solve.
	cache *CostCache
	cEnt  *costEntry

	// Per-block candidate queues: blkQ holds nblk segments
	// of bsz packed (i<<32 | j) cells each, blkQn the live count per
	// block, qCur the cyclic drain cursor. Candidates priced by a refill
	// but not pivoted are retained here instead of being rediscovered by
	// the next refill sweep; qCur rotates ties toward the
	// least-recently-served block (Cunningham-style anti-cycling).
	blkQ  []int64
	blkQn []int
	qCur  int

	// Per-solve pivot/refill-row counters, reset by stageSimplex. They
	// cost two increments per pivot and feed Stats (the solverscale
	// experiment reports them; tests use them to assert that refills
	// scan fewer cells than full sweeps would).
	statPivots     int
	statRefillRows int

	// Cost-amortization counters, reset by stageProblem / the 1-D closed
	// form and published into the process-wide totals when the solve
	// returns: ground evaluations performed, cost cells served from /
	// stored into the cache, and pivots served from the retained
	// candidate queues without a refill.
	statGroundEvals int
	statCacheHits   int
	statCacheMisses int
	statCandReuse   int
}

// SolverStats reports how the last solve spent its time: simplex pivots
// performed and candidate-refill rows scanned (each refill row prices n
// cells, so refillRows·n is the total pricing work). The 1-D closed
// form reports zeros.
type SolverStats struct {
	Pivots     int
	RefillRows int
	// GroundEvals counts ground-distance evaluations actually performed
	// (cache hits are not evaluations).
	GroundEvals int
	// CacheHits / CacheMisses count cost cells served from / stored into
	// the attached CostCache; both are zero when no cache is attached.
	CacheHits   int
	CacheMisses int
	// CandReuse counts pivots that were served from the retained
	// per-block candidate queues without any refill scan.
	CandReuse int
}

// Stats returns the counters of the last Distance/DistanceFlow call.
func (sv *Solver) Stats() SolverStats {
	return SolverStats{
		Pivots:      sv.statPivots,
		RefillRows:  sv.statRefillRows,
		GroundEvals: sv.statGroundEvals,
		CacheHits:   sv.statCacheHits,
		CacheMisses: sv.statCacheMisses,
		CandReuse:   sv.statCandReuse,
	}
}

// NewSolver returns an empty Solver; buffers grow on first use and are
// retained for subsequent calls.
func NewSolver(opts ...SolverOption) *Solver {
	sv := &Solver{}
	for _, o := range opts {
		o(sv)
	}
	return sv
}

// Prewarm grows every scratch buffer the solver needs for transportation
// problems with up to k sources and k sinks (plus the balancing dummy
// row/column), and the event buffer of the 1-D closed-form path, so even
// the solver's FIRST Distance call runs without allocating. Batch
// drivers that hand one Solver to each worker (e.g. the tiled pairwise
// matrix) call Prewarm(maxSignatureLen) once per worker instead of
// paying the growth allocations lazily inside the timed region. k <= 0
// is a no-op; Prewarm never shrinks.
func (sv *Solver) Prewarm(k int) {
	if k <= 0 {
		return
	}
	m := k + 1 // + dummy row
	n := k + 1 // + dummy column
	nb := m + n - 1
	sv.srcIdx = growInts(sv.srcIdx, k)
	sv.dstIdx = growInts(sv.dstIdx, k)
	sv.supply = growFloats(sv.supply, m)
	sv.demand = growFloats(sv.demand, n)
	sv.cost = growFloats(sv.cost, m*n)
	sv.basisI = growInts(sv.basisI, nb)
	sv.basisJ = growInts(sv.basisJ, nb)
	sv.basisF = growFloats(sv.basisF, nb)
	sv.rowHead = growInts(sv.rowHead, m)
	sv.colHead = growInts(sv.colHead, n)
	sv.rowNext = growInts(sv.rowNext, nb)
	sv.colNext = growInts(sv.colNext, nb)
	sv.u = growFloats(sv.u, m)
	sv.v = growFloats(sv.v, n)
	sv.uSet = growBools(sv.uSet, m)
	sv.vSet = growBools(sv.vSet, n)
	if cap(sv.queue) < m+n {
		sv.queue = make([]int, 0, m+n)
	}
	if cap(sv.path) < nb {
		sv.path = make([]int, 0, nb)
	}
	if cap(sv.events) < 2*k {
		sv.events = make([]ev1d, 2*k)
	}
	// Per-row lazy-fill flags, basis-cell costs, the filtered center
	// views, and the rooted basis-tree arrays.
	sv.rowReady = growBools(sv.rowReady, m)
	sv.basisC = growFloats(sv.basisC, nb)
	sv.lazySrcC = growCenters(sv.lazySrcC, k)
	sv.lazyDstC = growCenters(sv.lazyDstC, k)
	sv.parentNode = growInts(sv.parentNode, m+n)
	sv.parentArc = growInts(sv.parentArc, m+n)
	sv.depth = growInts(sv.depth, m+n)
	if cap(sv.cycA) < nb {
		sv.cycA = make([]int, 0, nb)
	}
	if cap(sv.cycB) < nb {
		sv.cycB = make([]int, 0, nb)
	}
	// Candidate-queue segments: one bsz-capacity queue per pricing block.
	bsz := sv.pricingBlock()
	nblk := (m + bsz - 1) / bsz
	sv.blkQ = growInt64s(sv.blkQ, nblk*bsz)
	sv.blkQn = growInts(sv.blkQn, nblk)
	// An attached cache is prewarmed with a 3-dimensional-center margin
	// (covers every center dimensionality this repo ships; higher-dim
	// workloads should CostCache.Prewarm(k, dim) directly).
	if sv.cache != nil {
		sv.cache.Prewarm(k, 3)
	}
}

var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// euclideanPtr identifies the Euclidean ground function so Distance can
// take the exact 1-D closed form even when the caller passes emd.Euclidean
// explicitly rather than nil.
var euclideanPtr = reflect.ValueOf(Euclidean).Pointer()

// euclideanGround reports whether g selects the Euclidean ground distance
// (nil defaults to Euclidean).
func euclideanGround(g Ground) bool {
	return g == nil || reflect.ValueOf(g).Pointer() == euclideanPtr
}

// Distance returns EMD(s, t) under ground distance g (nil means
// Euclidean). It is the no-flow variant: the transportation problem is
// solved on the Solver's scratch buffers and the optimal flow matrix is
// never materialized. When both signatures are 1-D with equal total
// weight and the ground is Euclidean (nil or explicit), the exact
// closed-form Wasserstein-1 fast path is used instead of the simplex.
func (sv *Solver) Distance(s, t signature.Signature, g Ground) (float64, error) {
	if err := validatePair(s, t); err != nil {
		return 0, err
	}
	return sv.distance(s, t, g)
}

// DistanceValidated is Distance minus the per-call input validation, for
// batch drivers that have already run signature.Validate on every input
// and checked that the dimensions match (the tiled pairwise matrix
// validates each of its n signatures once instead of 2(n−1) times).
// The computed value is bit-identical to Distance; passing inputs that
// would not survive Distance's validation is undefined behaviour (e.g.
// negative weights are silently dropped rather than rejected).
func (sv *Solver) DistanceValidated(s, t signature.Signature, g Ground) (float64, error) {
	return sv.distance(s, t, g)
}

// DistanceCached is Distance with ground-cost caching guaranteed on: if
// no CostCache is attached yet, a DefaultCostCacheSlots cache is created
// and attached first, then the call proceeds exactly as Distance. The
// returned floats are bit-identical to an uncached Distance on the same
// inputs — the cache stores the exact values the ground function
// returned and the solver derives the identical pricing tolerance —
// so callers may mix DistanceCached and Distance freely. The win is on
// repeats: once a support pair's cost rows are cached, re-solves of the
// same supports (the detector window, histogram/grid builders, pairwise
// tiles) skip every ground evaluation, including the O(m+n) NW-corner
// basis costs.
//
// Because caching is auto-attached here, g must be pure: the cache keys
// the ground by its code pointer, so closures that share code but
// capture different state (a scaled-metric factory, say) would silently
// share entries and return wrong distances. Pass package-level
// functions; for parameterized grounds use Distance, or a distinct
// function per parameterization.
func (sv *Solver) DistanceCached(s, t signature.Signature, g Ground) (float64, error) {
	if err := validatePair(s, t); err != nil {
		return 0, err
	}
	if sv.cache == nil {
		sv.cache = NewCostCache(0)
	}
	return sv.distance(s, t, g)
}

// distance routes a validated pair onto the closed form or the simplex.
func (sv *Solver) distance(s, t signature.Signature, g Ground) (float64, error) {
	defer sv.publishStats()
	if s.Dim() == 1 && euclideanGround(g) {
		ws, wt := s.TotalWeight(), t.TotalWeight()
		if balancedTotals(ws, wt) {
			return sv.distance1DTotals(s, t, ws, wt), nil
		}
	}
	if g == nil {
		g = Euclidean
	}
	amount, err := sv.prepare(s, t, g)
	if err != nil {
		return 0, err
	}
	totalCost, err := sv.solve()
	if err != nil {
		return 0, err
	}
	if amount <= 0 {
		return 0, nil
	}
	return totalCost / amount, nil
}

// DistanceFlow computes the optimal transportation plan between s and t
// under ground distance g (nil means Euclidean) and returns the full
// Result. Zero-weight signature entries are dropped before solving; Flow
// indices follow the filtered signatures. Only the returned flow matrix
// is freshly allocated; all solver state is reused.
func (sv *Solver) DistanceFlow(s, t signature.Signature, g Ground) (*Result, error) {
	if err := validatePair(s, t); err != nil {
		return nil, err
	}
	defer sv.publishStats()
	if g == nil {
		g = Euclidean
	}
	amount, err := sv.prepare(s, t, g)
	if err != nil {
		return nil, err
	}
	totalCost, err := sv.solve()
	if err != nil {
		return nil, err
	}
	// Materialize the flow over the real (filtered, non-dummy) cells.
	realM, realN := len(sv.srcIdx), len(sv.dstIdx)
	flow := make([][]float64, realM)
	cells := make([]float64, realM*realN)
	for i := range flow {
		flow[i] = cells[i*realN : (i+1)*realN : (i+1)*realN]
	}
	clamp := sv.flowClamp()
	for k := range sv.basisF {
		f := sv.basisF[k]
		if f <= clamp {
			continue
		}
		i, j := sv.basisI[k], sv.basisJ[k]
		if i < realM && j < realN {
			flow[i][j] = f
		}
	}
	res := &Result{Cost: totalCost, Amount: amount, Flow: flow}
	if amount > 0 {
		res.EMD = totalCost / amount
	}
	return res, nil
}

func validatePair(s, t signature.Signature) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("emd: source %w", err)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("emd: sink %w", err)
	}
	if s.Dim() != t.Dim() {
		return fmt.Errorf("emd: dimension mismatch %d vs %d", s.Dim(), t.Dim())
	}
	return nil
}

// distance1D is the closed-form balanced 1-D path on reusable buffers.
func (sv *Solver) distance1D(s, t signature.Signature) float64 {
	return sv.distance1DTotals(s, t, s.TotalWeight(), t.TotalWeight())
}

// distance1DTotals is distance1D with the (already summed) totals passed
// in: the dispatch computes them for the balance check, and re-summing
// the same weights would produce the identical floats anyway — this just
// skips two O(K) sweeps per pair on the hot path.
func (sv *Solver) distance1DTotals(s, t signature.Signature, totS, totT float64) float64 {
	sv.statPivots, sv.statRefillRows = 0, 0
	sv.statGroundEvals, sv.statCacheHits, sv.statCacheMisses, sv.statCandReuse = 0, 0, 0, 0
	ln := s.Len() + t.Len()
	if cap(sv.events) < ln {
		sv.events = make([]ev1d, ln)
	}
	events := sv.events[:ln]
	for i, c := range s.Centers {
		events[i] = ev1d{c[0], s.Weights[i] / totS}
	}
	off := s.Len()
	for i, c := range t.Centers {
		events[off+i] = ev1d{c[0], -t.Weights[i] / totT}
	}
	sortEvents(events)
	emdVal := 0.0
	cdfDiff := 0.0
	for i := 0; i < len(events)-1; i++ {
		cdfDiff += events[i].w
		gap := events[i+1].x - events[i].x
		emdVal += math.Abs(cdfDiff) * gap
	}
	return emdVal
}

// stageProblem filters zero-weight entries, decides the balancing dummy
// (a zero-cost node on the deficient side, Eq. 9-11), sets the problem
// dimensions, and stages the supply/demand vectors. It is the front
// half of prepare and returns the total moved amount min(ΣW, ΣW′) plus
// the filtered sizes and dummy placement the cost-matrix half needs.
func (sv *Solver) stageProblem(s, t signature.Signature) (amount float64, m0, n0 int, dummyRow, dummyCol bool, err error) {
	// Reset the amortization counters here rather than in the simplex
	// stages: prepare performs ground evaluations (and cache traffic)
	// before any stage function runs.
	sv.statGroundEvals, sv.statCacheHits, sv.statCacheMisses, sv.statCandReuse = 0, 0, 0, 0
	sv.srcIdx = sv.srcIdx[:0]
	totS := 0.0
	for i, w := range s.Weights {
		if w > 0 {
			sv.srcIdx = append(sv.srcIdx, i)
			totS += w
		}
	}
	sv.dstIdx = sv.dstIdx[:0]
	totT := 0.0
	for j, w := range t.Weights {
		if w > 0 {
			sv.dstIdx = append(sv.dstIdx, j)
			totT += w
		}
	}
	m0, n0 = len(sv.srcIdx), len(sv.dstIdx)
	if m0 == 0 || n0 == 0 {
		return 0, 0, 0, false, false, fmt.Errorf("emd: empty transportation problem (%dx%d)", m0, n0)
	}
	amount = math.Min(totS, totT)

	// Decide the dummy before building the matrix so it can be laid out
	// flat in one pass.
	m, n := m0, n0
	diff := totS - totT
	const relTol = 1e-12
	dummyCol = diff > relTol*math.Max(totS, totT)
	dummyRow = -diff > relTol*math.Max(totS, totT)
	if dummyCol {
		n++
	} else if dummyRow {
		m++
	}
	sv.m, sv.n = m, n

	sv.supply = growFloats(sv.supply, m)
	sv.demand = growFloats(sv.demand, n)
	for i := 0; i < m0; i++ {
		sv.supply[i] = s.Weights[sv.srcIdx[i]]
	}
	for j := 0; j < n0; j++ {
		sv.demand[j] = t.Weights[sv.dstIdx[j]]
	}
	switch {
	case dummyCol:
		sv.demand[n0] = diff
	case dummyRow:
		sv.supply[m0] = -diff
	case diff > 0:
		// Negligible imbalance from rounding: absorb into the last entry.
		sv.demand[n0-1] += diff
	case diff < 0:
		sv.supply[m0-1] -= diff
	}
	return amount, m0, n0, dummyRow, dummyCol, nil
}

// prepare stages the problem for the simplex: the cost matrix backing
// store is sized but NOT filled — rows are computed on
// first touch by a pricing block (fillRow), and basis-cell costs are
// carried separately (basisC), so a K=512 pair whose pivots touch only
// a fraction of the matrix never pays the full 512×512 ground-distance
// sweep up front.
func (sv *Solver) prepare(s, t signature.Signature, g Ground) (float64, error) {
	amount, m0, n0, dummyRow, dummyCol, err := sv.stageProblem(s, t)
	if err != nil {
		return 0, err
	}
	m, n := sv.m, sv.n
	sv.cost = growFloats(sv.cost, m*n)
	sv.rowReady = growBools(sv.rowReady, m)
	for i := 0; i < m; i++ {
		sv.rowReady[i] = false
	}
	sv.lazySrcC = growCenters(sv.lazySrcC, m0)
	for i := 0; i < m0; i++ {
		sv.lazySrcC[i] = s.Centers[sv.srcIdx[i]]
	}
	sv.lazyDstC = growCenters(sv.lazyDstC, n0)
	for j := 0; j < n0; j++ {
		sv.lazyDstC[j] = t.Centers[sv.dstIdx[j]]
	}
	sv.lazyG = g
	sv.lazyN0 = n0
	sv.lazyDummyCol = dummyCol
	sv.cEnt = nil
	if sv.cache != nil {
		sv.cEnt = sv.cache.acquire(s, t, sv.srcIdx, sv.dstIdx, s.Dim(), groundPtr(g))
	}
	if dummyRow {
		row := sv.cost[m0*n : (m0+1)*n]
		for j := range row {
			row[j] = 0
		}
		sv.rowReady[m0] = true
	}
	// maxCost grows as rows are computed; the pricing tolerance tracks
	// it. Cells priced early under a (smaller) provisional tolerance can
	// only be kept as candidates more eagerly, never wrongly discarded,
	// and the optimality certificate is issued by a full block sweep
	// after every row has been computed.
	sv.maxCost = 0
	return amount, nil
}

// releaseLazy drops the center views captured by prepare so a
// pooled solver does not pin the last pair's signature data. The cache
// entry checkout is dropped too — entries are only valid within the
// solve that acquired them (a later acquire may evict or rebuild them).
func (sv *Solver) releaseLazy() {
	for i := range sv.lazySrcC {
		sv.lazySrcC[i] = nil
	}
	for j := range sv.lazyDstC {
		sv.lazyDstC[j] = nil
	}
	sv.lazyG = nil
	sv.cEnt = nil
}

// fillRow computes cost row i of the lazy matrix (all real columns plus
// the zero dummy column), raises maxCost to the row's maximum and marks
// the row ready. A cached row is copied and raises maxCost by its stored
// maximum: the costs are never NaN, so that is the exact float the
// uncached row's comparisons arrive at, and tolerance evolution is
// bit-identical to the uncached solve.
func (sv *Solver) fillRow(i int) error {
	n := sv.n
	n0 := sv.lazyN0
	row := sv.cost[i*n : (i+1)*n]
	rowMax := 0.0
	if ent := sv.cEnt; ent != nil && ent.rowDone[i] {
		copy(row[:n0], ent.cost[i*n0:(i+1)*n0])
		rowMax = ent.rowMax[i]
		sv.statCacheHits += n0
	} else {
		ci := sv.lazySrcC[i]
		g := sv.lazyG
		for j := 0; j < n0; j++ {
			d := g(ci, sv.lazyDstC[j])
			if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				return fmt.Errorf("emd: ground distance returned %g", d)
			}
			row[j] = d
			if d > rowMax {
				rowMax = d
			}
		}
		sv.statGroundEvals += n0
		if ent := sv.cEnt; ent != nil {
			copy(ent.cost[i*n0:(i+1)*n0], row[:n0])
			ent.rowMax[i] = rowMax
			ent.rowDone[i] = true
			sv.statCacheMisses += n0
		}
	}
	if sv.lazyDummyCol {
		row[n0] = 0
	}
	if rowMax > sv.maxCost {
		sv.maxCost = rowMax
	}
	sv.rowReady[i] = true
	return nil
}

// lazyCost returns the ground cost of a single cell without forcing its
// whole row: ready rows are read from the matrix, dummy cells are zero,
// and anything else is one ground-distance evaluation. Building the
// initial basis needs exactly one cell per basis entry, so going
// through lazyCost keeps the up-front cost at O(m+n) evaluations
// instead of O(m·n).
func (sv *Solver) lazyCost(i, j int) (float64, error) {
	if sv.rowReady[i] {
		return sv.cost[i*sv.n+j], nil
	}
	if sv.lazyDummyCol && j == sv.lazyN0 {
		return 0, nil
	}
	// Single-cell cache traffic: NW-corner basis costs are looked up (and
	// stored) cell-by-cell, so a warm re-solve skips even the O(m+n)
	// basis ground evaluations that never belong to a filled row.
	if ent := sv.cEnt; ent != nil {
		idx := i*ent.n0 + j
		if ent.rowDone[i] || ent.cellDone[idx] {
			d := ent.cost[idx]
			if d > sv.maxCost {
				sv.maxCost = d
			}
			sv.statCacheHits++
			return d, nil
		}
	}
	d := sv.lazyG(sv.lazySrcC[i], sv.lazyDstC[j])
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return 0, fmt.Errorf("emd: ground distance returned %g", d)
	}
	sv.statGroundEvals++
	if ent := sv.cEnt; ent != nil {
		idx := i*ent.n0 + j
		ent.cost[idx] = d
		ent.cellDone[idx] = true
		sv.statCacheMisses++
	}
	if d > sv.maxCost {
		sv.maxCost = d
	}
	return d, nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growInt64s(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}

func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

func growCenters(s [][]float64, n int) [][]float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([][]float64, n)
}

// flowClamp is the threshold under which a basic flow is considered pure
// Charnes-perturbation residue.
func (sv *Solver) flowClamp() float64 {
	return sv.eps * float64(sv.m+sv.n) * 4
}
