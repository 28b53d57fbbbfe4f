package pgrid

import (
	"fmt"

	"scap/internal/obs"
)

// Factored-path observability: calls vs builds distinguishes cache
// hits; each SolveFactored is exactly two banded triangular sweeps.
var (
	cFactorCalls = obs.NewCounter("pgrid.factor.calls")
	cFactorBuild = obs.NewCounter("pgrid.factor.builds")
	cFactSolves  = obs.NewCounter("pgrid.factored.solves")
	cFactSweeps  = obs.NewCounter("pgrid.factored.triangular_sweeps")
)

// Factorization is the banded LDLᵀ (root-free Cholesky) factorization of
// the mesh conductance matrix G. The 5-point stencil on an n×n mesh gives
// G a half-bandwidth of n (node i couples only to i±1 and i±n), and
// symmetric factorization preserves that band, so the unit lower factor L
// is stored as n·n rows of n sub-diagonals each — O(n³) floats instead of
// the O(n⁴) a dense factor would need.
//
// G depends only on the mesh topology and resistances, never on the
// injection, so the factorization is computed once per Grid and every
// per-pattern solve reduces to two banded triangular sweeps — O(n³) work
// against the O(sweeps·n²) of SOR with its ~100+ sweeps. After
// construction a Factorization is immutable and safe for concurrent use
// by any number of goroutines (each solve writes only caller-owned
// buffers).
type Factorization struct {
	n  int // mesh edge: n×n nodes
	nn int // node count n·n
	bw int // half-bandwidth (= n)
	// l[i*bw+o-1] holds L[i][i-o], the o-th sub-diagonal entry of the
	// unit lower factor in row i, for o = 1..min(i, bw).
	l []float64
	d []float64 // diagonal of D, in mesh conductance units (1/Ω)
}

// Factor returns the grid's cached LDLᵀ factorization, computing it on
// first use. The computation is guarded by a sync.Once, so concurrent
// first callers block until one factorization exists and then share it.
func (g *Grid) Factor() (*Factorization, error) {
	cFactorCalls.Add(1)
	g.factOnce.Do(func() {
		cFactorBuild.Add(1)
		g.fact, g.factErr = factorize(g)
	})
	return g.fact, g.factErr
}

// factorize assembles the banded conductance matrix and eliminates it.
func factorize(g *Grid) (*Factorization, error) {
	defer obs.TraceStart().End("pgrid", "banded-factor")
	n, gseg := g.P.N, 1/g.P.SegRes
	nn := n * n
	bw := n
	f := &Factorization{
		n: n, nn: nn, bw: bw,
		l: make([]float64, nn*bw),
		d: make([]float64, nn),
	}

	// aRow writes row i of G restricted to columns [i-bw, i] into dst
	// (dst[bw] is the diagonal, dst[bw-o] is column i-o). Only three of
	// those entries are ever non-zero: the west neighbour (i-1, absent on
	// the left mesh edge), the south neighbour (i-n) and the diagonal.
	row := make([]float64, bw+1)
	aRow := func(i int, dst []float64) {
		for k := range dst {
			dst[k] = 0
		}
		ix, iy := i%n, i/n
		diag := g.padG[i]
		if ix > 0 {
			diag += gseg
			dst[bw-1] = -gseg // column i-1
		}
		if ix < n-1 {
			diag += gseg
		}
		if iy > 0 {
			diag += gseg
			dst[0] = -gseg // column i-n
		}
		if iy < n-1 {
			diag += gseg
		}
		dst[bw] = diag
	}

	// Row-oriented banded LDLᵀ: for each row i, eliminate against the at
	// most bw previous rows inside the band. All indices k below satisfy
	// k >= i-bw and k >= j-bw, so every factor access stays in band.
	for i := 0; i < nn; i++ {
		aRow(i, row)
		jmin := i - bw
		if jmin < 0 {
			jmin = 0
		}
		li := f.l[i*bw:] // row i of L: li[o-1] = L[i][i-o]
		for j := jmin; j <= i; j++ {
			sum := row[bw-(i-j)]
			for k := jmin; k < j; k++ {
				sum -= li[i-k-1] * f.d[k] * f.l[j*bw+(j-k-1)]
			}
			if j < i {
				li[i-j-1] = sum / f.d[j]
			} else {
				if sum <= 0 {
					return nil, fmt.Errorf("pgrid: mesh matrix not positive definite at node %d (no pad path?)", i)
				}
				f.d[i] = sum
			}
		}
	}
	return f, nil
}

// SolveScratch is caller-owned intermediate storage for the direct
// solve paths: the banded forward-substitution vector and the sparse
// tier's interleaved batch work vector (each grown lazily on first use).
// One per worker; never shared between concurrent solves.
type SolveScratch struct {
	y     []float64
	lanes [][BatchWidth]float64
}

// SolveFactored solves G·v = I for a per-node current injection (mA)
// using the grid's cached banded LDLᵀ factorization — two O(n³)
// triangular sweeps instead of an SOR iteration, and exact to rounding
// rather than to an iteration tolerance. Inputs and outputs match Solve
// (drops in volts, Iterations reported as 1).
//
// reuse, when non-nil, recycles a previous Solution's Drop buffer;
// scratch, when non-nil, recycles the forward-substitution vector. Both
// are per-caller state: a single Factorization may serve any number of
// concurrent SolveFactored calls as long as each goroutine passes its
// own reuse/scratch.
func (g *Grid) SolveFactored(injMA []float64, reuse *Solution, scratch *SolveScratch) (*Solution, error) {
	f, err := g.Factor()
	if err != nil {
		return nil, err
	}
	nn := f.nn
	if len(injMA) != nn {
		return nil, fmt.Errorf("pgrid: injection length %d, want %d", len(injMA), nn)
	}
	sol := reuse
	if sol == nil || cap(sol.Drop) < nn {
		sol = &Solution{Drop: make([]float64, nn)}
	}
	sol.N = f.n
	sol.Drop = sol.Drop[:nn]
	sol.Iterations = 1
	sol.Worst = 0
	if scratch == nil {
		scratch = &SolveScratch{}
	}
	if cap(scratch.y) < nn {
		scratch.y = make([]float64, nn)
	}
	y := scratch.y[:nn]

	// The two banded sweeps produce the raw solution in mV (conductances
	// in 1/Ω against mA); convert to volts in a final pass that also
	// finds the worst drop, mirroring SolveWarm.
	v := sol.Drop
	bw := f.bw
	// Forward sweep: L·y = I (unit lower triangular, banded).
	for i := 0; i < nn; i++ {
		s := injMA[i]
		omax := i
		if omax > bw {
			omax = bw
		}
		li := f.l[i*bw:]
		for o := 1; o <= omax; o++ {
			s -= li[o-1] * y[i-o]
		}
		y[i] = s
	}
	// Diagonal + backward sweep: Lᵀ·v = D⁻¹·y.
	for i := nn - 1; i >= 0; i-- {
		s := y[i] / f.d[i]
		omax := nn - 1 - i
		if omax > bw {
			omax = bw
		}
		for o := 1; o <= omax; o++ {
			s -= f.l[(i+o)*bw+(o-1)] * v[i+o]
		}
		v[i] = s
	}
	for i := range v {
		v[i] *= 1e-3 // mV -> V
		if v[i] > sol.Worst {
			sol.Worst = v[i]
		}
	}
	cFactSolves.Add(1)
	cFactSweeps.Add(2)
	return sol, nil
}
