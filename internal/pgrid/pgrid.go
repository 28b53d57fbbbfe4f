// Package pgrid models the chip's power-delivery network and computes
// IR-drop: a uniform resistive mesh per rail (VDD and VSS have the same
// topology), fed by pads distributed around the die periphery (the paper's
// design has 37 VDD and 37 VSS pads), with cell currents injected at their
// placed locations. The mesh equation G·v = I is solved by a cached
// sparse nested-dissection LDLᵀ factorization (SolveSparse and the
// batched SolveSparseBatch — the per-pattern hot path, which amortizes
// the matrix work once per grid and streams the factor once per
// BatchWidth injections), a cached banded LDLᵀ (SolveFactored), or
// successive over-relaxation (Solve/SolveWarm — the iterative
// cross-validation oracle, which no production solver tier dispatches
// to).
//
// Both analyses of the paper run on top of this solver:
//
//   - statistical (vector-less): per-instance currents from a toggle
//     probability over a chosen window (full or half cycle — Table 3);
//   - dynamic (per-pattern): per-instance currents from the switching
//     energy a pattern dissipates within its switching time frame window
//     (Figure 3, Table 4).
//
// Because the center of the die is farthest from the pads, the central
// block B5 naturally sees the worst drop — the paper's key observation.
package pgrid

import (
	"fmt"
	"math"
	"sync"

	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/place"
)

// Solver observability (see DESIGN.md §10): one flush per solve, never
// per sweep, so the disabled cost is a handful of gated atomic loads
// against an O(N²·sweeps) or O(N³) solve.
var (
	cSORSolves   = obs.NewCounter("pgrid.sor.solves")
	cSORSweeps   = obs.NewCounter("pgrid.sor.sweeps")
	hSORResidual = obs.NewHistogram("pgrid.sor.final_residual_v")
)

func init() {
	// Cache hits are Factor() calls that found the factorization built.
	obs.RegisterDerived("pgrid.factor.cache_hits", func(c map[string]int64) (float64, bool) {
		calls, builds := c["pgrid.factor.calls"], c["pgrid.factor.builds"]
		return float64(calls - builds), calls > 0
	})
}

// Params configures the mesh and solver.
type Params struct {
	N       int     // mesh resolution: N×N nodes over the die
	SegRes  float64 // Ω of each mesh segment between adjacent nodes
	NumPads int     // pads per rail around the periphery (paper: 37)
	PadRes  float64 // Ω from a pad to its mesh node
	// PadOffset shifts the pads by this fraction of the pad pitch; the
	// VSS network uses 0.5 so its pads interleave with the VDD pads.
	PadOffset float64
	MaxIter   int     // SOR iteration cap
	Tol       float64 // convergence threshold on max node update, volts
	Omega     float64 // SOR relaxation factor (1..2)
	// Workers fans the sparse numeric factorization's independent
	// subtrees across the internal/parallel pool (<= 0 means all cores,
	// 1 forces the serial path). Results are bit-identical for any value.
	Workers int
}

// DefaultParams returns a mesh calibrated to 180 nm package/grid
// magnitudes at the repo's default design scale.
func DefaultParams() Params {
	return Params{
		N: 40, SegRes: 0.55, NumPads: 37, PadRes: 0.4,
		MaxIter: 20000, Tol: 1e-7, Omega: 1.85,
	}
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("pgrid: N must be >= 1")
	}
	if p.SegRes <= 0 || p.PadRes <= 0 {
		return fmt.Errorf("pgrid: resistances must be positive")
	}
	if p.NumPads < 1 {
		return fmt.Errorf("pgrid: need at least one pad")
	}
	if p.Omega <= 0 || p.Omega >= 2 {
		return fmt.Errorf("pgrid: Omega %v outside (0, 2)", p.Omega)
	}
	if p.MaxIter < 1 || p.Tol <= 0 {
		return fmt.Errorf("pgrid: bad solver controls")
	}
	return nil
}

// Grid is a built power mesh for one die.
type Grid struct {
	P  Params
	fp *place.Floorplan
	// padG[i] is the pad conductance attached to node i (0 if none).
	padG []float64
	// nodeBlock[i] is the floorplan block holding node i's center
	// (fp.BlockAt of NodeXY(i), NoBlock outside every block), computed
	// once so the per-block reductions never re-scan the floorplan.
	nodeBlock []int32

	// Cached banded LDLᵀ factorization of the conductance matrix (see
	// factor.go); built lazily on the first SolveFactored/Factor call and
	// shared read-only by every solve thereafter.
	factOnce sync.Once
	fact     *Factorization
	factErr  error

	// Cached sparse LDLᵀ factorization under the nested-dissection
	// ordering (see sparse.go); same lazy build / shared read-only
	// discipline as the banded factor.
	sparseOnce sync.Once
	sparse     *SparseFactorization
	sparseErr  error
}

// New builds the mesh over the floorplan's die.
func New(fp *place.Floorplan, p Params) (*Grid, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nn := p.N * p.N
	g := &Grid{P: p, fp: fp, padG: make([]float64, nn), nodeBlock: make([]int32, nn)}
	for i := 0; i < p.NumPads; i++ {
		x, y := padXY(float64(i)+p.PadOffset, p.NumPads, fp)
		g.padG[g.NodeOf(x, y)] += 1 / p.PadRes
	}
	for node := range g.nodeBlock {
		g.nodeBlock[node] = int32(fp.BlockAt(g.NodeXY(node)))
	}
	return g, nil
}

// padXY mirrors parasitic.PadXY (duplicated to keep the package free of a
// dependency cycle): pads uniformly spaced around the periphery.
func padXY(i float64, n int, fp *place.Floorplan) (float64, float64) {
	per := 2 * (fp.W + fp.H)
	pos := math.Mod(per*i/float64(n), per)
	switch {
	case pos < fp.W:
		return pos, 0
	case pos < fp.W+fp.H:
		return fp.W, pos - fp.W
	case pos < 2*fp.W+fp.H:
		return 2*fp.W + fp.H - pos, fp.H
	default:
		return 0, per - pos
	}
}

// NodeOf returns the mesh node index closest to die location (x, y).
func (g *Grid) NodeOf(x, y float64) int {
	n := g.P.N
	ix := int(x / g.fp.W * float64(n))
	iy := int(y / g.fp.H * float64(n))
	if ix < 0 {
		ix = 0
	}
	if ix >= n {
		ix = n - 1
	}
	if iy < 0 {
		iy = 0
	}
	if iy >= n {
		iy = n - 1
	}
	return iy*n + ix
}

// NodeXY returns the die location of a node's center.
func (g *Grid) NodeXY(node int) (float64, float64) {
	n := g.P.N
	ix, iy := node%n, node/n
	return (float64(ix) + 0.5) * g.fp.W / float64(n),
		(float64(iy) + 0.5) * g.fp.H / float64(n)
}

// InjectInstCurrents maps per-instance currents (mA, indexed by InstID)
// onto mesh nodes, returning the per-node injection vector.
func (g *Grid) InjectInstCurrents(d *netlist.Design, cur []float64) []float64 {
	return g.InjectInstCurrentsInto(nil, d, cur)
}

// InjectInstCurrentsInto is InjectInstCurrents accumulating into a
// reusable per-node buffer (grown if needed, zeroed, returned) so the
// per-pattern pipeline does not allocate N² floats per solve.
func (g *Grid) InjectInstCurrentsInto(inj []float64, d *netlist.Design, cur []float64) []float64 {
	if len(inj) != g.P.N*g.P.N {
		inj = make([]float64, g.P.N*g.P.N)
	} else {
		for i := range inj {
			inj[i] = 0
		}
	}
	for i := range d.Insts {
		if cur[i] == 0 {
			continue
		}
		inj[g.NodeOf(d.Insts[i].X, d.Insts[i].Y)] += cur[i]
	}
	return inj
}

// Solution is a solved rail: per-node voltage drop from the nominal rail
// voltage (positive volts for both VDD sag and VSS bounce).
type Solution struct {
	N          int
	Drop       []float64 // volts per node
	Iterations int
	Worst      float64 // max node drop, volts
}

// Solve computes node voltage drops for a per-node current injection (mA).
// The mesh conductances are in 1/Ω, so the raw solution is in mV and is
// converted to volts. Every call starts SOR from a zero guess; the
// per-pattern pipelines use SolveWarm instead.
func (g *Grid) Solve(injMA []float64) (*Solution, error) {
	return g.SolveWarm(injMA, nil, nil)
}

// SolveWarm is Solve with two reuse hooks for the per-pattern hot loop:
//
//   - warm, when non-nil, is an initial voltage guess in volts (a
//     previous Solution.Drop for a similar injection). Successive
//     per-pattern injections resemble each other, so warm-starting cuts
//     the SOR iteration count sharply. Warm may alias reuse.Drop —
//     warm-starting a solve in its own buffer is the intended use.
//   - reuse, when non-nil, is a Solution whose Drop buffer is recycled
//     instead of allocating N² floats per call (per-worker scratch).
//
// The solve runs to the same Tol for any guess, so a warm-started
// solution agrees with the cold one to solver tolerance. An
// already-converged guess costs exactly one verification sweep
// (Iterations == 1): the convergence scan and the final mV→V
// conversion with its worst-drop pass live outside the iteration path.
func (g *Grid) SolveWarm(injMA, warm []float64, reuse *Solution) (*Solution, error) {
	n := g.P.N
	if len(injMA) != n*n {
		return nil, fmt.Errorf("pgrid: injection length %d, want %d", len(injMA), n*n)
	}
	if warm != nil && len(warm) != n*n {
		return nil, fmt.Errorf("pgrid: warm-start length %d, want %d", len(warm), n*n)
	}
	sol := reuse
	if sol == nil || cap(sol.Drop) < n*n {
		sol = &Solution{Drop: make([]float64, n*n)}
	}
	sol.N = n
	sol.Drop = sol.Drop[:n*n]
	sol.Iterations = 0
	sol.Worst = 0
	v := sol.Drop
	if warm != nil {
		for i := range v {
			v[i] = warm[i] * 1e3 // V -> mV (the sweep works in mV)
		}
	} else {
		for i := range v {
			v[i] = 0
		}
	}

	gseg := 1 / g.P.SegRes
	converged := false
	lastDelta := 0.0
	for iter := 1; iter <= g.P.MaxIter; iter++ {
		maxDelta := 0.0
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				i := iy*n + ix
				sumG := g.padG[i]
				sumGV := 0.0
				if ix > 0 {
					sumG += gseg
					sumGV += gseg * v[i-1]
				}
				if ix < n-1 {
					sumG += gseg
					sumGV += gseg * v[i+1]
				}
				if iy > 0 {
					sumG += gseg
					sumGV += gseg * v[i-n]
				}
				if iy < n-1 {
					sumG += gseg
					sumGV += gseg * v[i+n]
				}
				nv := (sumGV + injMA[i]) / sumG
				nv = v[i] + g.P.Omega*(nv-v[i])
				if d := math.Abs(nv - v[i]); d > maxDelta {
					maxDelta = d
				}
				v[i] = nv
			}
		}
		sol.Iterations = iter
		lastDelta = maxDelta * 1e-3 // mV -> V
		if lastDelta < g.P.Tol {
			converged = true
			break
		}
	}
	if !converged {
		return nil, fmt.Errorf("pgrid: SOR did not converge in %d iterations", g.P.MaxIter)
	}
	cSORSolves.Add(1)
	cSORSweeps.Add(int64(sol.Iterations))
	hSORResidual.Observe(lastDelta)
	for i := range v {
		v[i] *= 1e-3 // mV -> V
		if v[i] > sol.Worst {
			sol.Worst = v[i]
		}
	}
	return sol, nil
}

// At samples the solved drop at a die location (nearest node).
func (s *Solution) At(g *Grid, x, y float64) float64 {
	return s.Drop[g.NodeOf(x, y)]
}

// WorstPerBlock returns the maximum node drop inside each block rectangle,
// plus a chip-level entry (index NumBlocks). Nodes outside every block
// count only toward the chip entry.
func (s *Solution) WorstPerBlock(g *Grid, numBlocks int) []float64 {
	out := make([]float64, numBlocks+1)
	blocks := g.nodeBlock[:len(s.Drop)]
	for node, d := range s.Drop {
		if b := int(blocks[node]); b >= 0 && b < numBlocks && d > out[b] {
			out[b] = d
		}
		if d > out[numBlocks] {
			out[numBlocks] = d
		}
	}
	return out
}
