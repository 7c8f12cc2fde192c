package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/emd"
	"repro/internal/randx"
	"repro/internal/signature"
)

// SolverScaleOptions sizes the solver cost-amortization study.
type SolverScaleOptions struct {
	// Ks are the signature sizes to sweep (default 32, 64, 128, 256).
	Ks []int
	// Dim is the center dimensionality (default 2).
	Dim int
	// Pairs is the number of random signature pairs timed per K
	// (default 4).
	Pairs int
}

func (o *SolverScaleOptions) defaults() {
	if len(o.Ks) == 0 {
		o.Ks = []int{32, 64, 128, 256}
	}
	if o.Dim <= 0 {
		o.Dim = 2
	}
	if o.Pairs <= 0 {
		o.Pairs = 4
	}
}

// SolverScaleRow is one K of the study: mean per-distance time of a
// cold (uncached) solve and of a warm re-solve with a ground-cost
// cache, plus the solver's work counters.
type SolverScaleRow struct {
	K             int
	PerOp         time.Duration // uncached solve
	CachedPerOp   time.Duration // warm re-solve with a ground-cost cache
	CachedSpeedup float64       // PerOp / CachedPerOp
	Pivots        int
	RefillRows    int // refill rows scanned (each prices ~K cells)
	// Cost-amortization counters: ground evaluations performed by the
	// uncached solves vs the cached warm re-solves (the latter must be
	// zero — every cell is served from the cache), cache cells served,
	// and pivots fed from the retained candidate queues.
	UncachedGroundEvals int
	CachedGroundEvals   int
	CacheHits           int
	CandReuse           int
}

// SolverScaleResult is the report of the solver-scaling experiment.
type SolverScaleResult struct {
	Rows   []SolverScaleRow
	Report string
}

// SolverScale times the EMD simplex on random signature pairs across
// signature sizes, uncached and as a warm re-solve with a ground-cost
// cache, verifying on every pair that the cached value is bit-identical
// to the uncached one and needed zero ground evaluations. It backs
// `repro -exp solverscale`.
func SolverScale(seed int64, opts SolverScaleOptions) (*SolverScaleResult, error) {
	opts.defaults()
	rng := randx.New(seed)
	res := &SolverScaleResult{}

	plain := emd.NewSolver()
	cached := emd.NewSolver(emd.WithCostCache(0))

	for _, k := range opts.Ks {
		row := SolverScaleRow{K: k}
		var plainTotal, cachedTotal time.Duration
		for p := 0; p < opts.Pairs; p++ {
			s := solverScaleSig(rng, k, opts.Dim)
			u := solverScaleSig(rng, k, opts.Dim)

			start := time.Now()
			want, err := plain.Distance(s, u, emd.Euclidean)
			if err != nil {
				return nil, fmt.Errorf("solverscale: K=%d: %w", k, err)
			}
			plainTotal += time.Since(start)
			ps := plain.Stats()
			row.Pivots += ps.Pivots
			row.RefillRows += ps.RefillRows
			row.UncachedGroundEvals += ps.GroundEvals
			row.CandReuse += ps.CandReuse

			// Cached column: prime the cache with one solve of the pair,
			// then time the warm re-solve — the repeat-heavy shape of the
			// detector window and the pairwise tiles.
			if _, err := cached.Distance(s, u, emd.Euclidean); err != nil {
				return nil, fmt.Errorf("solverscale: cache prime K=%d: %w", k, err)
			}
			start = time.Now()
			wv, err := cached.Distance(s, u, emd.Euclidean)
			if err != nil {
				return nil, fmt.Errorf("solverscale: cached K=%d: %w", k, err)
			}
			cachedTotal += time.Since(start)
			ws := cached.Stats()
			row.CachedGroundEvals += ws.GroundEvals
			row.CacheHits += ws.CacheHits
			if wv != want {
				return nil, fmt.Errorf("solverscale: K=%d pair %d: cached %.17g != uncached %.17g (cache must be bit-transparent)", k, p, wv, want)
			}
			if ws.GroundEvals != 0 {
				return nil, fmt.Errorf("solverscale: K=%d pair %d: warm cached re-solve performed %d ground evals, want 0", k, p, ws.GroundEvals)
			}
		}
		row.PerOp = plainTotal / time.Duration(opts.Pairs)
		row.CachedPerOp = cachedTotal / time.Duration(opts.Pairs)
		if row.CachedPerOp > 0 {
			row.CachedSpeedup = float64(row.PerOp) / float64(row.CachedPerOp)
		}
		res.Rows = append(res.Rows, row)
	}

	var b strings.Builder
	b.WriteString(header("Solver scaling: EMD simplex cost amortization"))
	fmt.Fprintf(&b, "\n%d pairs per K, %d-D centers; uncached solve vs warm re-solve\n", opts.Pairs, opts.Dim)
	b.WriteString("of each pair with a ground-cost cache:\n\n")
	fmt.Fprintf(&b, "%6s  %12s  %12s  %8s  %8s  %12s  %12s  %12s  %10s  %10s\n",
		"K", "uncached/op", "cached/op", "speedup", "pivots", "refill rows", "ground evals", "cached evals", "cache hits", "queue hits")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%6d  %12s  %12s  %7.2fx  %8d  %12d  %12d  %12d  %10d  %10d\n",
			r.K, r.PerOp.Round(time.Microsecond), r.CachedPerOp.Round(time.Microsecond), r.CachedSpeedup,
			r.Pivots, r.RefillRows, r.UncachedGroundEvals, r.CachedGroundEvals, r.CacheHits, r.CandReuse)
	}
	b.WriteString("\nEvery warm cached re-solve was bit-identical to its uncached solve\n")
	b.WriteString("with zero ground evaluations; the conformance suite\n")
	b.WriteString("(FuzzSolverDistance, exhaustive small-instance enumeration, golden\n")
	b.WriteString("detector trace) pins the solver's optimality contract in CI.\n")
	res.Report = b.String()
	return res, nil
}

// solverScaleSig draws one normalized K-center signature.
func solverScaleSig(rng *randx.RNG, k, dim int) signature.Signature {
	s := signature.Signature{Weights: make([]float64, k)}
	total := 0.0
	for i := 0; i < k; i++ {
		s.Centers = append(s.Centers, rng.NormalVec(dim, 0, 3))
		s.Weights[i] = rng.Gamma(1, 1) + 0.01
		total += s.Weights[i]
	}
	for i := range s.Weights {
		s.Weights[i] /= total
	}
	return s
}
