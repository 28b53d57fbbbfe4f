package main

import (
	"math/rand"

	"scap/internal/atpg"
	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/logic"
)

// mix describes a seed-generated pattern set standing in for one kind of
// ATPG output, so the validation layers can be driven without running
// ATPG at all.
type mix struct {
	name string
	// careFrac is the share of scan cells and primary inputs that get a
	// random value; the rest are filled with 0. 1 gives conventional
	// random-fill patterns, ~0.02 the noise-tolerant procedure's fill-0
	// patterns.
	careFrac float64
	patterns int
}

var (
	denseMix  = mix{name: "dense", careFrac: 1, patterns: 512}
	sparseMix = mix{name: "sparse", careFrac: 0.02, patterns: 2048}
)

// genPatterns draws m.patterns launch-off-capture patterns for domain 0
// from seed. Scan enable and scan-in pins are held at 0 as the ATPG
// filler holds them. Each pattern's Target is a random domain fault, so
// per-pattern profiles carry a valid target block.
func genPatterns(sys *core.System, m mix, seed int64) []atpg.Pattern {
	rng := rand.New(rand.NewSource(seed))
	d := sys.D
	subset := sys.NewFaultList().InDomain(0)
	held := map[int]bool{d.Nets[sys.SC.SE].PI: true}
	for _, si := range sys.SC.SIs {
		held[d.Nets[si].PI] = true
	}
	draw := func(n int, skip map[int]bool) []logic.V {
		v := make([]logic.V, n)
		for i := range v {
			if !skip[i] && rng.Float64() < m.careFrac {
				v[i] = logic.FromBool(rng.Intn(2) == 1)
			}
		}
		return v
	}
	pats := make([]atpg.Pattern, m.patterns)
	for i := range pats {
		pats[i] = atpg.Pattern{
			V1:     draw(len(d.Flops), nil),
			PIs:    draw(len(d.PIs), held),
			Target: subset[rng.Intn(len(subset))],
		}
	}
	return pats
}

// faultGrade fault-simulates pats (launch-off-capture, domain dom) against
// a fresh fault list, 64 patterns per good-machine batch, dropping each
// fault at its first detecting pattern. It returns the graded list and
// the domain subset it was graded over.
func faultGrade(sys *core.System, pats []atpg.Pattern, dom int) (*fault.List, []int) {
	l := sys.NewFaultList()
	subset := l.InDomain(dom)
	var v1W, piW []logic.Word
	slotV1 := make([][]logic.V, 0, 64)
	slotPI := make([][]logic.V, 0, 64)
	for lo := 0; lo < len(pats); lo += 64 {
		hi := min(lo+64, len(pats))
		slotV1, slotPI = slotV1[:0], slotPI[:0]
		for i := lo; i < hi; i++ {
			slotV1 = append(slotV1, pats[i].V1)
			slotPI = append(slotPI, pats[i].PIs)
		}
		v1W = logic.PackSlots(v1W, slotV1)
		piW = logic.PackSlots(piW, slotPI)
		b := sys.FSim.GoodSim(v1W, piW, dom, logic.ValidMask(hi-lo))
		sys.FSim.Drop(l, subset, b, lo)
	}
	return l, subset
}
