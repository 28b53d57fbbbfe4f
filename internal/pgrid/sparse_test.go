package pgrid

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"scap/internal/place"
)

// TestNestedDissectionRoundTrip: for every mesh edge (including the
// degenerate 1..3 sizes the recursion must bottom out on), the ordering
// is a true permutation and Perm/IPerm invert each other.
func TestNestedDissectionRoundTrip(t *testing.T) {
	for n := 1; n <= 40; n++ {
		o := NestedDissection(n)
		nn := n * n
		if len(o.Perm) != nn || len(o.IPerm) != nn {
			t.Fatalf("n=%d: perm length %d / iperm length %d, want %d", n, len(o.Perm), len(o.IPerm), nn)
		}
		seen := make([]bool, nn)
		for k, node := range o.Perm {
			if node < 0 || int(node) >= nn {
				t.Fatalf("n=%d: perm[%d] = %d out of range", n, k, node)
			}
			if seen[node] {
				t.Fatalf("n=%d: node %d ordered twice", n, node)
			}
			seen[node] = true
			if o.IPerm[node] != int32(k) {
				t.Fatalf("n=%d: iperm[perm[%d]] = %d, want %d", n, k, o.IPerm[node], k)
			}
		}
	}
}

// TestSparseMatchesOracles cross-validates the sparse tier against the
// banded factorization and the dense Gaussian oracle on randomized
// meshes (the same regime as TestSolveFactoredPropertyEquivalence), and
// against the dense oracle on a non-square die.
func TestSparseMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const tol = 1e-9
	for trial := 0; trial < 25; trial++ {
		g := randGrid(t, rng)
		inj := randInj(g, rng)
		sp, err := g.SolveSparse(inj, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		fac, err := g.SolveFactored(inj, nil, nil)
		if err != nil {
			t.Fatalf("trial %d: factored: %v", trial, err)
		}
		direct, err := g.SolveDirect(inj)
		if err != nil {
			t.Fatalf("trial %d: direct: %v", trial, err)
		}
		for i := range sp.Drop {
			if d := math.Abs(sp.Drop[i] - fac.Drop[i]); d > tol {
				t.Fatalf("trial %d node %d: sparse %v vs factored %v (N=%d)",
					trial, i, sp.Drop[i], fac.Drop[i], g.P.N)
			}
			if d := math.Abs(sp.Drop[i] - direct.Drop[i]); d > tol {
				t.Fatalf("trial %d node %d: sparse %v vs direct %v (N=%d)",
					trial, i, sp.Drop[i], direct.Drop[i], g.P.N)
			}
		}
		if d := math.Abs(sp.Worst - fac.Worst); d > tol {
			t.Fatalf("trial %d: worst sparse %v vs factored %v", trial, sp.Worst, fac.Worst)
		}
	}
	// A rectangular die lands the pads asymmetrically, so padG loses the
	// square symmetry; the degenerate sizes bottom out the dissection.
	fp := &place.Floorplan{W: place.DieSize, H: 0.35 * place.DieSize}
	for _, n := range []int{1, 2, 3, 7, 16, 21, 40} {
		p := DefaultParams()
		p.N = n
		g, err := New(fp, p)
		if err != nil {
			t.Fatal(err)
		}
		nn := n * n
		inj := make([]float64, nn)
		for i := range inj {
			inj[i] = float64((i*31)%17) * 0.5
		}
		inj[nn/2] += 25
		sp, err := g.SolveSparse(inj, nil, nil)
		if err != nil {
			t.Fatalf("rect n=%d: sparse: %v", n, err)
		}
		direct, err := g.SolveDirect(inj)
		if err != nil {
			t.Fatalf("rect n=%d: direct: %v", n, err)
		}
		for i := range sp.Drop {
			if d := math.Abs(sp.Drop[i] - direct.Drop[i]); d > tol {
				t.Fatalf("rect n=%d node %d: sparse %v vs direct %v", n, i, sp.Drop[i], direct.Drop[i])
			}
		}
	}
}

// TestSparseFactorStats: the symbolic fill bookkeeping must be
// internally consistent, and the nested-dissection fill must stay far
// below the banded factor's N³ storage at a representative size.
func TestSparseFactorStats(t *testing.T) {
	p := DefaultParams()
	p.N = 48
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	f, err := g.SparseFactor()
	if err != nil {
		t.Fatal(err)
	}
	nn := int64(p.N * p.N)
	if f.NNZ() < nn {
		t.Fatalf("factor nnz %d below node count %d", f.NNZ(), nn)
	}
	if f.FillRatio() < 1 {
		t.Fatalf("fill ratio %v below 1", f.FillRatio())
	}
	banded := nn * int64(p.N) // banded l storage: nn rows × bw floats
	if f.NNZ() >= banded/2 {
		t.Fatalf("sparse fill %d not clearly below banded storage %d", f.NNZ(), banded)
	}
	// Cached: a second call returns the same factorization.
	again, err := g.SparseFactor()
	if err != nil {
		t.Fatal(err)
	}
	if again != f {
		t.Fatal("SparseFactor did not cache")
	}
}

// TestSolveSparseReuseNoAlloc: with caller-owned reuse/scratch the
// per-pattern sparse solve must not allocate — the same contract the
// banded SolveFactored hot path holds.
func TestSolveSparseReuseNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGrid(t, rng)
	inj := randInj(g, rng)
	fresh, err := g.SolveSparse(inj, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := &Solution{Drop: make([]float64, g.P.N*g.P.N)}
	var scratch SolveScratch
	if _, err := g.SolveSparse(inj, sol, &scratch); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.SolveSparse(inj, sol, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolveSparse allocated %v objects/op, want 0", allocs)
	}
	for i := range fresh.Drop {
		if fresh.Drop[i] != sol.Drop[i] {
			t.Fatalf("node %d: reuse changed the answer: %v vs %v", i, fresh.Drop[i], sol.Drop[i])
		}
	}
	// Undersized reuse must be replaced, not indexed out of range; bad
	// injection lengths must be rejected.
	small, err := g.SolveSparse(inj, &Solution{Drop: make([]float64, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Drop) != g.P.N*g.P.N {
		t.Fatalf("undersized reuse left %d nodes", len(small.Drop))
	}
	if _, err := g.SolveSparse(make([]float64, 3), nil, nil); err == nil {
		t.Fatal("bad injection length accepted")
	}
}

// TestSparseFactorizationConcurrentSolves shares one sparse
// factorization across 8 goroutines (first-touch build race included);
// run under -race via `make test-race`, answers must be bit-identical
// to a serial reference, mirroring TestFactorizationConcurrentSolves.
func TestSparseFactorizationConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := DefaultParams()
	p.N = 16
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const solvesEach = 6
	injs := make([][]float64, goroutines*solvesEach)
	refs := make([][]float64, len(injs))
	for i := range injs {
		injs[i] = randInj(g, rng)
	}
	gRef, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range injs {
		sol, err := gRef.SolveSparse(injs[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = append([]float64(nil), sol.Drop...)
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch SolveScratch
			var sol *Solution
			for s := 0; s < solvesEach; s++ {
				i := w*solvesEach + s
				var err error
				sol, err = g.SolveSparse(injs[i], sol, &scratch)
				if err != nil {
					errs[w] = err
					return
				}
				for node := range sol.Drop {
					if sol.Drop[node] != refs[i][node] {
						t.Errorf("worker %d solve %d node %d: %v vs serial %v",
							w, s, node, sol.Drop[node], refs[i][node])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestNestedDissectionTreeCoverage: the recorded recursion tree
// partitions the elimination range exactly — every row belongs to
// precisely one node's serial chunk ([sep, hi)), children tile their
// parent's [lo, sep), and the root spans the whole mesh.
func TestNestedDissectionTreeCoverage(t *testing.T) {
	for n := 1; n <= 40; n++ {
		o := NestedDissection(n)
		nn := int32(n * n)
		if len(o.tree) == 0 {
			t.Fatalf("n=%d: empty recursion tree", n)
		}
		root := o.tree[len(o.tree)-1]
		if root.lo != 0 || root.hi != nn {
			t.Fatalf("n=%d: root spans [%d, %d), want [0, %d)", n, root.lo, root.hi, nn)
		}
		covered := make([]int, nn)
		for idx, nd := range o.tree {
			if nd.lo > nd.sep || nd.sep > nd.hi {
				t.Fatalf("n=%d node %d: bad span lo=%d sep=%d hi=%d", n, idx, nd.lo, nd.sep, nd.hi)
			}
			if (nd.left < 0) != (nd.right < 0) {
				t.Fatalf("n=%d node %d: half-leaf (left=%d right=%d)", n, idx, nd.left, nd.right)
			}
			if nd.left >= 0 {
				l, r := o.tree[nd.left], o.tree[nd.right]
				if l.lo != nd.lo || l.hi != r.lo || r.hi != nd.sep {
					t.Fatalf("n=%d node %d: children [%d,%d) [%d,%d) don't tile [%d,%d)",
						n, idx, l.lo, l.hi, r.lo, r.hi, nd.lo, nd.sep)
				}
			} else if nd.sep != nd.lo {
				t.Fatalf("n=%d node %d: leaf with sep %d != lo %d", n, idx, nd.sep, nd.lo)
			}
			for k := nd.sep; k < nd.hi; k++ {
				covered[k]++
			}
		}
		for k, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: row %d covered %d times", n, k, c)
			}
		}
	}
}

// TestSparseParallelFactorBitIdentity: the numeric factorization must
// produce a bit-identical factor for any worker count, on a mesh large
// enough that the subtree fan-out actually spawns goroutines.
func TestSparseParallelFactorBitIdentity(t *testing.T) {
	const n = 128 // root children ≈ 8k rows each, above sparseSubtreeMinRows
	factor := func(workers int) *SparseFactorization {
		p := DefaultParams()
		p.N = n
		p.Workers = workers
		g, err := New(place.NewFloorplan(), p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.SparseFactor()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := factor(1)
	for _, workers := range []int{2, 4, 7} {
		f := factor(workers)
		if len(f.lx) != len(ref.lx) {
			t.Fatalf("workers=%d: nnz %d != serial %d", workers, len(f.lx), len(ref.lx))
		}
		for i := range f.lx {
			if f.lx[i] != ref.lx[i] || f.rowIdx[i] != ref.rowIdx[i] {
				t.Fatalf("workers=%d: factor entry %d differs (must be bit-identical)", workers, i)
			}
		}
		for i := range f.d {
			if f.d[i] != ref.d[i] {
				t.Fatalf("workers=%d: d[%d] differs (must be bit-identical)", workers, i)
			}
		}
	}
}
