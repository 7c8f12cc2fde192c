package emd

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/signature"
)

// Exhaustive small-instance conformance: every signature shape with
// m, n <= 4 over a small weight grid, checked against a brute-force
// enumeration of ALL basic feasible solutions of the transportation
// polytope. The optimum of a (balanced) transportation LP is attained
// at a vertex, and every vertex is a spanning-tree basis, so
// enumerating the spanning bases and taking the cheapest feasible one
// is an exact, solver-independent oracle. The weight/center grids are
// chosen to be maximally degenerate — repeated weights, equidistant and
// coincident centers — because ties in θ and in the reduced costs are
// precisely what random fuzzing almost never hits and what a
// pricing/pivot rework can silently get wrong.

// bruteForceTransport returns the minimum cost over all basic feasible
// solutions of the balanced transportation problem, enumerating every
// spanning-tree cell subset (Gosper's hack over the <= 16-cell grid).
// ok is false when no feasible basis exists (malformed input).
func bruteForceTransport(supply, demand []float64, cost [][]float64) (best float64, ok bool) {
	m, n := len(supply), len(demand)
	cells := m * n
	if cells > 20 {
		panic("bruteForceTransport: instance too large to enumerate")
	}
	nb := m + n - 1
	best = math.Inf(1)

	var flow [20]float64
	var ra [8]float64
	var rb [8]float64
	var rowCnt, colCnt [8]int
	var cellOf [20]int // packed list of the subset's cells
	var done [20]bool

	last := uint32(1) << cells
	for mask := (uint32(1) << nb) - 1; mask < last; {
		// Tree-solve the subset by repeated leaf elimination.
		for i := 0; i < m; i++ {
			ra[i] = supply[i]
			rowCnt[i] = 0
		}
		for j := 0; j < n; j++ {
			rb[j] = demand[j]
			colCnt[j] = 0
		}
		cnt := 0
		for c := mask; c != 0; c &= c - 1 {
			cell := bits.TrailingZeros32(c)
			cellOf[cnt] = cell
			done[cnt] = false
			rowCnt[cell/n]++
			colCnt[cell%n]++
			cnt++
		}
		feasible := true
		totalCost := 0.0
		for solved := 0; solved < cnt; {
			progressed := false
			for p := 0; p < cnt && feasible; p++ {
				if done[p] {
					continue
				}
				cell := cellOf[p]
				i, j := cell/n, cell%n
				var f float64
				switch {
				case rowCnt[i] == 1:
					f = ra[i]
				case colCnt[j] == 1:
					f = rb[j]
				default:
					continue
				}
				if f < -1e-9 {
					feasible = false
					break
				}
				if f < 0 {
					f = 0
				}
				flow[p] = f
				ra[i] -= f
				rb[j] -= f
				rowCnt[i]--
				colCnt[j]--
				done[p] = true
				solved++
				progressed = true
			}
			if !feasible || !progressed {
				// A stall means the subset has a cycle or misses a
				// row/column: not a spanning basis.
				feasible = false
				break
			}
		}
		if feasible {
			for i := 0; i < m; i++ {
				if math.Abs(ra[i]) > 1e-7 {
					feasible = false
				}
			}
			for j := 0; j < n; j++ {
				if math.Abs(rb[j]) > 1e-7 {
					feasible = false
				}
			}
		}
		if feasible {
			for p := 0; p < cnt; p++ {
				totalCost += flow[p] * cost[cellOf[p]/n][cellOf[p]%n]
			}
			if totalCost < best {
				best = totalCost
				ok = true
			}
		}
		// Gosper's hack: next subset with the same popcount.
		c := mask & (^mask + 1)
		r := mask + c
		if r >= last {
			break
		}
		mask = (((r ^ mask) >> 2) / c) | r
	}
	return best, ok
}

// bruteEMD mirrors the production pipeline around the brute-force
// oracle: zero-weight filtering, dummy balancing, cost division by the
// moved amount.
func bruteEMD(t *testing.T, s, u signature.Signature, g Ground) float64 {
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
	totS, totT := 0.0, 0.0
	for _, w := range sw {
		totS += w
	}
	for _, w := range tw {
		totT += w
	}
	cost := make([][]float64, m)
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
	want, ok := bruteForceTransport(supply, demand, cost)
	if !ok {
		t.Fatalf("brute force found no feasible basis (%dx%d)", len(supply), len(demand))
	}
	amount := math.Min(totS, totT)
	if amount <= 0 {
		return 0
	}
	return want / amount
}

// enumWeights fills w from a base-len(grid) counter so every weight
// combination is visited exactly once per shape.
func enumWeights(w []float64, grid []float64, combo int) int {
	for i := range w {
		w[i] = grid[combo%len(grid)]
		combo /= len(grid)
	}
	return combo
}

func TestExhaustiveSmallInstances(t *testing.T) {
	// Degenerate on purpose: repeated weights (equal θ candidates), a
	// zero to exercise filtering, integer-grid centers (ties in the
	// cost matrix), and a coincident-center layout (zero costs).
	weightGrid := []float64{0, 0.75, 1.5}
	layouts := [][]float64{
		{0, 1, 2, 3},     // equidistant: maximal reduced-cost ties
		{0, 0, 1.5, 1.5}, // coincident pairs: zero-cost cells
	}
	dflt := NewSolver()
	tiny := NewSolver(WithPricingBlock(1))

	instances := 0
	for m := 1; m <= 4; m++ {
		for n := 1; n <= 4; n++ {
			combos := 1
			for i := 0; i < m+n; i++ {
				combos *= len(weightGrid)
			}
			for combo := 0; combo < combos; combo++ {
				for li, layout := range layouts {
					sw := make([]float64, m)
					tw := make([]float64, n)
					rest := enumWeights(sw, weightGrid, combo)
					enumWeights(tw, weightGrid, rest)
					posS, posT := 0, 0
					totS, totT := 0.0, 0.0
					for _, w := range sw {
						if w > 0 {
							posS++
							totS += w
						}
					}
					for _, w := range tw {
						if w > 0 {
							posT++
							totT += w
						}
					}
					if posS == 0 || posT == 0 {
						continue // empty problem: rejected by Validate/prepare
					}
					if posS == 4 && posT == 4 && math.Abs(totS-totT) > 1e-12 {
						// 4×4 plus a dummy is 20 cells — past the
						// enumeration budget. Unbalance is covered by
						// every other shape.
						continue
					}
					s := signature.Signature{Weights: sw}
					u := signature.Signature{Weights: tw}
					for i := 0; i < m; i++ {
						s.Centers = append(s.Centers, []float64{layout[i]})
					}
					for j := 0; j < n; j++ {
						u.Centers = append(u.Centers, []float64{layout[(j+li)%len(layout)]})
					}
					// Manhattan pins the simplex (1-D Euclidean balanced
					// pairs would take the closed form instead).
					g := Manhattan

					want := bruteEMD(t, s, u, g)
					for name, sv := range map[string]*Solver{"default": dflt, "block=1": tiny} {
						got, err := sv.Distance(s, u, g)
						if err != nil {
							t.Fatalf("m=%d n=%d combo=%d layout=%d %s: %v", m, n, combo, li, name, err)
						}
						if math.Abs(got-want) > 1e-8*(1+want) {
							t.Fatalf("m=%d n=%d combo=%d layout=%d %s: got %.15g, brute-force optimum %.15g (sw=%v tw=%v)",
								m, n, combo, li, name, got, want, sw, tw)
						}
					}
					instances++
				}
			}
		}
	}
	if instances < 10000 {
		t.Fatalf("enumeration shrank to %d instances; the exhaustive guard lost its teeth", instances)
	}
}
