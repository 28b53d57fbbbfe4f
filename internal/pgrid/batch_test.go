package pgrid

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"scap/internal/place"
)

// refSolveSparse is the single-right-hand-side sparse solve written out
// as plain scalar sweeps: the oracle the batched kernel must reproduce
// bit for bit on every lane.
func refSolveSparse(t *testing.T, g *Grid, inj []float64) []float64 {
	t.Helper()
	f, err := g.SparseFactor()
	if err != nil {
		t.Fatal(err)
	}
	nn, perm := f.nn, f.ord.Perm
	y := make([]float64, nn)
	for k := 0; k < nn; k++ {
		y[k] = inj[perm[k]]
	}
	for j := 0; j < nn; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			y[f.rowIdx[p]] -= f.lx[p] * yj
		}
	}
	for j := 0; j < nn; j++ {
		y[j] /= f.d[j]
	}
	for j := nn - 1; j >= 0; j-- {
		s := y[j]
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			s -= f.lx[p] * y[f.rowIdx[p]]
		}
		y[j] = s
	}
	v := make([]float64, nn)
	for k := 0; k < nn; k++ {
		v[perm[k]] = y[k] * 1e-3
	}
	return v
}

// sameBits reports the first node where two drop vectors differ in
// their bit patterns (signed zeros included), or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// batchInjections is the lane pool the bit-identity test draws from: a
// dense scattered injection, an all-zero one, one of interleaved +0 and
// -0 entries (the zero skip decides the sign of its zero answers),
// single-node injections at a corner and the centre, and sparse random
// ones whose zero patterns differ, so batches mix zero and non-zero
// forward entries per column.
func batchInjections(n int, rng *rand.Rand) [][]float64 {
	nn := n * n
	zero := make([]float64, nn)
	signedZero := make([]float64, nn)
	for i := 0; i < nn; i += 2 {
		signedZero[i] = math.Copysign(0, -1)
	}
	corner := make([]float64, nn)
	corner[0] = 7.5
	centre := make([]float64, nn)
	centre[nn/2] = 3.25
	dense := make([]float64, nn)
	for i := range dense {
		dense[i] = 0.1 + rng.Float64()
	}
	pool := [][]float64{dense, zero, corner, centre, signedZero}
	for k := 0; k < 4; k++ {
		inj := make([]float64, nn)
		for h := 0; h < nn/10+1; h++ {
			inj[rng.Intn(nn)] += 5 * rng.Float64()
		}
		pool = append(pool, inj)
	}
	return pool
}

// TestSolveSparseBatchBitIdentical: every lane of a batched solve equals
// both the scalar oracle and a lone SolveSparse bit for bit, for every
// lane count 1..BatchWidth and whatever its batch-mates are (all-zero
// lanes, single-node lanes, mixed zero/non-zero columns), on meshes
// from the degenerate n=1 up to the n=128 sign-off mesh.
func TestSolveSparseBatchBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 40, 128} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := DefaultParams()
		p.N = n
		g, err := New(place.NewFloorplan(), p)
		if err != nil {
			t.Fatal(err)
		}
		pool := batchInjections(n, rng)
		refs := make([][]float64, len(pool))
		for i, inj := range pool {
			refs[i] = refSolveSparse(t, g, inj)
			lone, err := g.SolveSparse(inj, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if at := sameBits(lone.Drop, refs[i]); at >= 0 {
				t.Fatalf("n=%d injection %d node %d: SolveSparse %v vs oracle %v",
					n, i, at, lone.Drop[at], refs[i][at])
			}
		}
		var scratch SolveScratch
		sols := make([]*Solution, BatchWidth)
		for trial := 0; trial < 24; trial++ {
			lanes := 1 + trial%BatchWidth
			pick := make([]int, lanes)
			inj := make([][]float64, lanes)
			for l := range pick {
				pick[l] = rng.Intn(len(pool))
				inj[l] = pool[pick[l]]
			}
			// Recycle the previous batch's buffers to cover reuse.
			if err := g.SolveSparseBatch(inj, sols[:lanes], &scratch); err != nil {
				t.Fatal(err)
			}
			for l, i := range pick {
				sol := sols[l]
				if at := sameBits(sol.Drop, refs[i]); at >= 0 {
					t.Fatalf("n=%d trial %d lane %d/%d (injection %d) node %d: batch %v vs oracle %v",
						n, trial, l, lanes, i, at, sol.Drop[at], refs[i][at])
				}
				worst := 0.0
				for _, d := range refs[i] {
					worst = max(worst, d)
				}
				if sol.Worst != worst || sol.Iterations != 1 || sol.N != n {
					t.Fatalf("n=%d lane %d: Worst %v (want %v) Iterations %d N %d",
						n, l, sol.Worst, worst, sol.Iterations, sol.N)
				}
			}
		}
	}
}

// TestSolveSparseBatchValidation: batch shape errors are reported, not
// panics, and a steady-state full batch allocates nothing.
func TestSolveSparseBatchValidation(t *testing.T) {
	p := DefaultParams()
	p.N = 8
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	inj := make([]float64, 64)
	inj[10] = 1
	five := [][]float64{inj, inj, inj, inj, inj}
	if err := g.SolveSparseBatch(five, make([]*Solution, 5), nil); err == nil {
		t.Error("accepted a batch wider than BatchWidth")
	}
	if err := g.SolveSparseBatch(nil, nil, nil); err == nil {
		t.Error("accepted an empty batch")
	}
	if err := g.SolveSparseBatch(five[:2], make([]*Solution, 1), nil); err == nil {
		t.Error("accepted mismatched injection/solution counts")
	}
	if err := g.SolveSparseBatch([][]float64{inj, inj[:10]}, make([]*Solution, 2), nil); err == nil {
		t.Error("accepted a short injection")
	}
	sols := make([]*Solution, BatchWidth)
	var scratch SolveScratch
	if err := g.SolveSparseBatch(five[:BatchWidth], sols, &scratch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := g.SolveSparseBatch(five[:BatchWidth], sols, &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolveSparseBatch allocated %v objects/op, want 0", allocs)
	}
}

// TestSparseMatchesBandedAtSignOffMesh: on the 128×128 sign-off mesh the
// batched sparse tier agrees with the banded factorization within
// 1e-9 V on every node of every lane.
func TestSparseMatchesBandedAtSignOffMesh(t *testing.T) {
	p := DefaultParams()
	p.N = 128
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	pool := batchInjections(p.N, rand.New(rand.NewSource(5)))
	inj := [][]float64{pool[0], pool[3], pool[5], pool[6]}
	sols := make([]*Solution, len(inj))
	if err := g.SolveSparseBatch(inj, sols, nil); err != nil {
		t.Fatal(err)
	}
	var scratch SolveScratch
	for l, b := range inj {
		band, err := g.SolveFactored(b, nil, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range band.Drop {
			if d := math.Abs(band.Drop[i] - sols[l].Drop[i]); d > 1e-9 {
				t.Fatalf("lane %d node %d: sparse %v banded %v (|d|=%v)", l, i, sols[l].Drop[i], band.Drop[i], d)
			}
		}
	}
}

// TestSparseBatchConcurrentSolves shares one sparse factorization across
// goroutines that each run batched solves of different widths (first-
// touch build race included); run under -race via `make test-race`,
// every lane must equal a serial lone solve bit for bit.
func TestSparseBatchConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := DefaultParams()
	p.N = 24
	g, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	gRef, err := New(place.NewFloorplan(), p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	const batchesEach = 4
	injs := make([][]float64, goroutines*batchesEach*BatchWidth)
	refs := make([][]float64, len(injs))
	for i := range injs {
		injs[i] = randInj(g, rng)
		sol, err := gRef.SolveSparse(injs[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = sol.Drop
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch SolveScratch
			sols := make([]*Solution, BatchWidth)
			lanes := 1 + w%BatchWidth
			for s := 0; s < batchesEach; s++ {
				lo := (w*batchesEach + s) * BatchWidth
				if err := g.SolveSparseBatch(injs[lo:lo+lanes], sols[:lanes], &scratch); err != nil {
					errs[w] = err
					return
				}
				for l := 0; l < lanes; l++ {
					if at := sameBits(sols[l].Drop, refs[lo+l]); at >= 0 {
						t.Errorf("worker %d batch %d lane %d node %d: %v vs serial %v",
							w, s, l, at, sols[l].Drop[at], refs[lo+l][at])
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

// TestBlockTableMatchesFloorplanScan: the per-grid node→block table
// gives WorstPerBlock bit-identical to scanning the floorplan at every
// node centre, on square and non-square dies.
func TestBlockTableMatchesFloorplanScan(t *testing.T) {
	rect := &place.Floorplan{W: place.DieSize, H: 0.35 * place.DieSize, Blocks: place.NewFloorplan().Blocks}
	for _, fp := range []*place.Floorplan{place.NewFloorplan(), rect} {
		for _, n := range []int{1, 3, 17, 40} {
			p := DefaultParams()
			p.N = n
			g, err := New(fp, p)
			if err != nil {
				t.Fatal(err)
			}
			inj := batchInjections(n, rand.New(rand.NewSource(int64(n))))[0]
			sol, err := g.SolveSparse(inj, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			nb := len(fp.Blocks)
			if at := sameBits(sol.WorstPerBlock(g, nb), scanWorstPerBlock(g, fp, sol, nb)); at >= 0 {
				t.Fatalf("fp %vx%v n=%d: WorstPerBlock differs at block %d", fp.W, fp.H, n, at)
			}
		}
	}
}

// scanWorstPerBlock is the per-node floorplan scan the block table
// replaced: the oracle for WorstPerBlock.
func scanWorstPerBlock(g *Grid, fp *place.Floorplan, sol *Solution, nb int) []float64 {
	worst := make([]float64, nb+1)
	for node, d := range sol.Drop {
		if b := fp.BlockAt(g.NodeXY(node)); b >= 0 && b < nb {
			worst[b] = max(worst[b], d)
		}
		worst[nb] = max(worst[nb], d)
	}
	return worst
}
