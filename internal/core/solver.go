package core

import (
	"scap/internal/pgrid"
)

// Solver selects the power-grid solve path used by every per-pattern and
// statistical rail analysis (see DESIGN.md "Solver hierarchy"). Build
// always picks SolverSparse: on every mesh size the repo runs it beats
// the banded factor on build time, storage and solve time, and its
// batched solve carries the bulk per-pattern and Monte-Carlo analyses.
// Callers may switch System.Solver to SolverFactored to re-solve against
// an independent exact tier.
type Solver uint8

const (
	// SolverFactored solves every injection against the grid's cached
	// banded LDLᵀ factorization: the matrix work is paid once per grid
	// and each solve is two exact triangular sweeps. The factorization
	// is read-only after construction, so all workers share it and
	// results are independent of the worker count by construction. Kept
	// as the independent exact second tier that cross-checks the sparse
	// one.
	SolverFactored Solver = iota
	// SolverSparse (the production tier) solves against the grid's
	// cached sparse LDLᵀ factorization under a geometric
	// nested-dissection ordering. Same exactness and sharing discipline
	// as SolverFactored, but factor storage is O(N·log N) instead of the
	// banded N³, and the bulk analyses solve pgrid.BatchWidth injections
	// per pass over the factor (each bit-identical to its lone solve).
	SolverSparse
)

// String names the solver tier in the run report's info block.
func (s Solver) String() string {
	if s == SolverSparse {
		return "sparse"
	}
	return "factored"
}

// solveRail solves a batch of 1..pgrid.BatchWidth injections on one
// rail with the system's solver, writing lane k's answer to sols[k]. A
// non-nil sols[k] has its Drop buffer recycled under both tiers. The
// sparse tier solves the whole batch in one pass over its factor; the
// banded tier loops over the lanes, so callers keep one code path
// whatever the tier.
func (sys *System) solveRail(g *pgrid.Grid, inj [][]float64, sols []*pgrid.Solution, scratch *pgrid.SolveScratch) error {
	if sys.Solver == SolverSparse {
		return g.SolveSparseBatch(inj, sols, scratch)
	}
	for k, b := range inj {
		var err error
		if sols[k], err = g.SolveFactored(b, sols[k], scratch); err != nil {
			return err
		}
	}
	return nil
}

// batchWidth is the chunk width the bulk analyses fan out in: one
// chunk is one solveRail call. Only the sparse tier has a batched
// kernel, so it takes pgrid.BatchWidth lanes per chunk; the banded tier
// would solve the lanes one after another anyway, and one lane per chunk
// keeps its per-worker buffers at one vector per rail and schedules
// every pattern on its own.
func (sys *System) batchWidth() int {
	if sys.Solver == SolverSparse {
		return pgrid.BatchWidth
	}
	return 1
}

// solveRailOne is solveRail for one injection into a fresh Solution:
// the statistical cases and the single-pattern analyses.
func (sys *System) solveRailOne(g *pgrid.Grid, inj []float64) (*pgrid.Solution, error) {
	sols := []*pgrid.Solution{nil}
	if err := sys.solveRail(g, [][]float64{inj}, sols, nil); err != nil {
		return nil, err
	}
	return sols[0], nil
}

// prefactor builds the solver's factorization of g up front, on the
// calling goroutine, so the one-time cost (and its obs span) lands
// outside the worker pool and per-pattern timing.
func (sys *System) prefactor(g *pgrid.Grid) error {
	if sys.Solver == SolverSparse {
		_, err := g.SparseFactor()
		return err
	}
	_, err := g.Factor()
	return err
}
