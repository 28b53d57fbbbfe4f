package core

import (
	"fmt"

	"scap/internal/pgrid"
)

// Solver selects the power-grid solve path used by every per-pattern and
// statistical rail analysis (see DESIGN.md "Solver hierarchy"). The
// default is SolverSparse: on every mesh size the repo runs it beats the
// banded factor on both build and solve time, and its batched solve
// carries the bulk per-pattern and Monte-Carlo analyses.
type Solver uint8

const (
	// SolverFactored solves every injection against the grid's cached
	// banded LDLᵀ factorization: the matrix work is paid once per grid
	// and each solve is two exact triangular sweeps. The factorization
	// is read-only after construction, so all workers share it and
	// results are independent of the worker count by construction. Kept
	// as the independent exact second tier that cross-checks the sparse
	// default.
	SolverFactored Solver = iota
	// SolverSparse (the default) solves against the grid's cached sparse
	// LDLᵀ factorization under a geometric nested-dissection ordering.
	// Same exactness and sharing discipline as SolverFactored, but factor
	// storage is O(N·log N) instead of the banded N³, and the bulk
	// analyses solve pgrid.BatchWidth injections per pass over the
	// factor (each bit-identical to its lone solve).
	SolverSparse
	// SolverMG solves by geometric V-cycle multigrid (red-black
	// Gauss-Seidel smoothing, full-weighting/bilinear transfers, direct
	// coarse solve) to the grid's Tol, with per-solve O(N) work and no
	// factor storage at all — the tier for meshes where even the sparse
	// factor's O(N·log N) bites. The smoother/residual/transfer passes
	// fan out over the grid's Workers knob (row-blocked, bit-identical
	// for any count), and warm starts cut the V-cycle count.
	SolverMG
	// SolverAuto defers the choice to Build, which resolves it from the
	// mesh node count: sparse up to autoMGNodes, multigrid above.
	SolverAuto
)

// autoMGNodes is the auto tier's threshold, in mesh nodes (N²): above it
// the sparse factor's storage and build time lose to the factor-free
// multigrid tier (the grid-scale sweep in EXPERIMENTS.md is the
// calibration source).
const autoMGNodes = 1 << 17

// Resolve maps SolverAuto onto a concrete tier for a mesh of the given
// node count; concrete tiers pass through unchanged.
func (s Solver) Resolve(nodes int) Solver {
	if s != SolverAuto {
		return s
	}
	if nodes > autoMGNodes {
		return SolverMG
	}
	return SolverSparse
}

// String names the solver the way the -solver flag spells it.
func (s Solver) String() string {
	switch s {
	case SolverSparse:
		return "sparse"
	case SolverMG:
		return "mg"
	case SolverAuto:
		return "auto"
	}
	return "factored"
}

// SolverNames lists the accepted -solver spellings, in the order the
// CLIs document them. ParseSolver renders its error from this one list,
// so every CLI rejects a bad -solver with the same accepted set.
const SolverNames = "sparse|factored|mg|auto"

// SolverFlagUsage is the shared help text the CLIs register their
// -solver flag with, so the three frontends (irdrop, flow, scap)
// document the tiers identically.
const SolverFlagUsage = "power-grid solver: sparse (nested-dissection LDLᵀ, batched, default) | factored (banded LDLᵀ) | mg (geometric multigrid, factor-free) | auto (pick by mesh size)"

// ParseSolver maps a -solver flag value onto a Solver; the empty name
// is the default tier.
func ParseSolver(name string) (Solver, error) {
	switch name {
	case "", "sparse":
		return SolverSparse, nil
	case "factored":
		return SolverFactored, nil
	case "mg":
		return SolverMG, nil
	case "auto":
		return SolverAuto, nil
	}
	return 0, fmt.Errorf("core: unknown solver %q (want %s)", name, SolverNames)
}

// solveRail solves a batch of 1..pgrid.BatchWidth injections on one
// rail with the system's configured solver, writing lane k's answer to
// sols[k]. A non-nil sols[k] has its Drop buffer recycled under every
// tier. The sparse tier solves the whole batch in one pass over its
// factor; the other tiers loop over the lanes, so callers keep one code
// path whatever the tier. warm (one initial guess shared by every lane)
// applies to the multigrid path, scratch to every path. SolverAuto never reaches here — Build
// resolves it to a concrete tier.
func (sys *System) solveRail(g *pgrid.Grid, inj [][]float64, warm []float64, sols []*pgrid.Solution, scratch *pgrid.SolveScratch) error {
	if sys.Solver == SolverSparse {
		return g.SolveSparseBatch(inj, sols, scratch)
	}
	for k, b := range inj {
		var err error
		if sys.Solver == SolverMG {
			sols[k], err = g.SolveMultigrid(b, warm, sols[k], scratch)
		} else {
			sols[k], err = g.SolveFactored(b, sols[k], scratch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// batchWidth is the chunk width the bulk analyses fan out in: one
// chunk is one solveRail call. Only the sparse tier has a batched
// kernel, so it takes pgrid.BatchWidth lanes per chunk; the other tiers
// would solve the lanes one after another anyway, and one lane per chunk
// keeps their per-worker buffers at one vector per rail and schedules
// every pattern on its own.
func (sys *System) batchWidth() int {
	if sys.Solver == SolverSparse {
		return pgrid.BatchWidth
	}
	return 1
}

// solveRailOne is solveRail for one cold-started injection into a fresh
// Solution: the statistical cases, the Monte-Carlo warm-start baseline
// and the single-pattern analyses.
func (sys *System) solveRailOne(g *pgrid.Grid, inj []float64) (*pgrid.Solution, error) {
	sols := []*pgrid.Solution{nil}
	if err := sys.solveRail(g, [][]float64{inj}, nil, sols, nil); err != nil {
		return nil, err
	}
	return sols[0], nil
}

// prefactor builds the configured solver's one-time state for g up
// front, on the calling goroutine, so the one-time cost (factorization
// or multigrid hierarchy, and its obs span) lands outside the worker
// pool and per-pattern timing.
func (sys *System) prefactor(g *pgrid.Grid) error {
	switch sys.Solver {
	case SolverSparse:
		_, err := g.SparseFactor()
		return err
	case SolverMG:
		_, err := g.MG()
		return err
	}
	_, err := g.Factor()
	return err
}
