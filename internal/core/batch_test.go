package core

import (
	"math"
	"testing"

	"scap/internal/atpg"
	"scap/internal/pgrid"
)

// cycledFlow returns a flow of k patterns drawn cyclically from fr, so
// pattern counts beyond the shared test flow's size are available.
func cycledFlow(fr *FlowResult, k int) *FlowResult {
	sub := *fr
	sub.Patterns = make([]atpg.Pattern, k)
	for i := range sub.Patterns {
		sub.Patterns[i] = fr.Patterns[i%len(fr.Patterns)]
	}
	return &sub
}

// sameSummary reports whether two IR-drop summaries are bit-identical.
func sameSummary(a, b *IRDropSummary) bool {
	if a.Model != b.Model || a.STW != b.STW ||
		len(a.WorstVDD) != len(b.WorstVDD) || len(a.WorstVSS) != len(b.WorstVSS) {
		return false
	}
	for i := range a.WorstVDD {
		if math.Float64bits(a.WorstVDD[i]) != math.Float64bits(b.WorstVDD[i]) ||
			math.Float64bits(a.WorstVSS[i]) != math.Float64bits(b.WorstVSS[i]) {
			return false
		}
	}
	return true
}

// TestDynamicIRDropAllChunkedCounts: pattern counts that leave partial
// batches (1, 5, 7) and full ones (128) give bit-identical results for
// Workers=1 and Workers=2, on the batched sparse tier and the
// lane-looping banded tier. A pattern's answer also does not depend on
// which chunk or lane it rode in: repeated patterns (the flow is
// cycled) and the shared prefixes of different counts agree exactly.
func TestDynamicIRDropAllChunkedCounts(t *testing.T) {
	sys, _, conv, _ := build(t)
	for _, solver := range []Solver{SolverSparse, SolverFactored} {
		setSolver(t, sys, solver)
		full := map[int][]IRDropSummary{}
		for _, k := range []int{1, 5, 7, 128} {
			fr := cycledFlow(conv, k)
			setWorkers(t, sys, 1)
			serial, err := sys.DynamicIRDropAll(fr, ModelSCAP)
			if err != nil {
				t.Fatal(err)
			}
			sys.Workers = 2
			par, err := sys.DynamicIRDropAll(fr, ModelSCAP)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if serial[i].Index != i || par[i].Index != i || !sameSummary(&serial[i], &par[i]) {
					t.Fatalf("%v k=%d pattern %d: workers 1 vs 2 differ: %+v vs %+v", solver, k, i, serial[i], par[i])
				}
			}
			full[k] = serial
		}
		ref := full[128]
		for _, k := range []int{1, 5, 7, 128} {
			for i := range full[k] {
				if !sameSummary(&full[k][i], &ref[i%len(conv.Patterns)]) {
					t.Fatalf("%v k=%d pattern %d: differs from the same pattern in another batch", solver, k, i)
				}
			}
		}
	}
}

// TestMonteCarloChunkedCounts: trial counts with partial batches (1, 5,
// 7) and full ones (128) give bit-identical envelopes for Workers=1 and
// Workers=2. The per-block maxima are also monotone in the trial count,
// as they must be when each leading trial solves to the same answer
// whichever batch it rides in (lane independence itself is pinned in
// pgrid's TestSolveSparseBatchBitIdentical).
func TestMonteCarloChunkedCounts(t *testing.T) {
	sys, _, _, _ := build(t)
	nb := sys.D.NumBlocks
	maxOf := map[int][]float64{}
	for _, trials := range []int{1, 5, 7, 128} {
		setWorkers(t, sys, 1)
		serial, err := sys.MonteCarloIRDrop(trials, 11)
		if err != nil {
			t.Fatal(err)
		}
		sys.Workers = 2
		par, err := sys.MonteCarloIRDrop(trials, 11)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b <= nb; b++ {
			if math.Float64bits(serial.MeanVDD[b]) != math.Float64bits(par.MeanVDD[b]) ||
				math.Float64bits(serial.P95VDD[b]) != math.Float64bits(par.P95VDD[b]) ||
				math.Float64bits(serial.MaxVDD[b]) != math.Float64bits(par.MaxVDD[b]) {
				t.Fatalf("trials=%d block %d: envelopes differ across worker counts", trials, b)
			}
		}
		maxOf[trials] = serial.MaxVDD
	}
	for b := 0; b <= nb; b++ {
		if maxOf[1][b] > maxOf[5][b] || maxOf[5][b] > maxOf[7][b] || maxOf[7][b] > maxOf[128][b] {
			t.Fatalf("block %d: trial maxima not monotone in the trial count: %v %v %v %v",
				b, maxOf[1][b], maxOf[5][b], maxOf[7][b], maxOf[128][b])
		}
	}
}

// TestBlockTableOnCalibratedMesh: on the calibrated rail meshes the
// per-grid node→block table reproduces the per-node floorplan scan bit
// for bit in the per-block worst-drop reduction.
func TestBlockTableOnCalibratedMesh(t *testing.T) {
	sys, _, conv, _ := build(t)
	dyn, err := sys.DynamicIRDrop(&conv.Patterns[0], 0, ModelSCAP)
	if err != nil {
		t.Fatal(err)
	}
	nb := sys.D.NumBlocks
	for _, c := range []struct {
		g   *pgrid.Grid
		sol *pgrid.Solution
	}{{sys.GridVDD, dyn.SolVDD}, {sys.GridVSS, dyn.SolVSS}} {
		worst := make([]float64, nb+1)
		for node, d := range c.sol.Drop {
			if b := sys.FP.BlockAt(c.g.NodeXY(node)); b >= 0 && b < nb {
				worst[b] = max(worst[b], d)
			}
			worst[nb] = max(worst[nb], d)
		}
		got := c.sol.WorstPerBlock(c.g, nb)
		for b := 0; b <= nb; b++ {
			if math.Float64bits(got[b]) != math.Float64bits(worst[b]) {
				t.Fatalf("block %d: table worst %v, scan %v", b, got[b], worst[b])
			}
		}
	}
}

// TestBatchWidthPerTier: only the sparse tier, the one with a batched
// kernel, fans the bulk analyses out in pgrid.BatchWidth chunks; the
// lane-looping tiers take one pattern or trial per chunk, so their
// per-worker buffers stay at one vector per rail.
func TestBatchWidthPerTier(t *testing.T) {
	for _, c := range []struct {
		s    Solver
		want int
	}{{SolverSparse, pgrid.BatchWidth}, {SolverFactored, 1}} {
		sys := &System{Solver: c.s}
		if got := sys.batchWidth(); got != c.want {
			t.Errorf("%v: batch width %d, want %d", c.s, got, c.want)
		}
	}
}
