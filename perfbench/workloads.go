package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"scap/internal/atpg"
	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/parasitic"
	"scap/internal/pattern"
	"scap/internal/sdf"
	"scap/internal/soc"
	"scap/internal/verilog"
)

// passOut is what one timed pass reports besides its spans.
type passOut struct {
	// attempted counts the pass's operations: faults targeted, patterns
	// validated, solves and Monte-Carlo trials.
	attempted int
	// throughput_per_s is outputs per second of the span named rateSpan.
	outputs  int
	rateSpan string
	// values are workload figures reported in the traced run (pattern
	// quality, per-mix and per-stage rates).
	values map[string]float64
	// digest summarises the pass's outputs; every pass of a run must
	// produce the same one.
	digest string
}

// runner is one workload bound to a built system and its seed-generated
// inputs.
type runner interface {
	// pass runs the timed phase once, wrapping every call into a program
	// layer in a span of r.
	pass(r *recorder) (passOut, error)
	// check re-verifies the last pass's outputs by an independent route
	// and returns how many checked items disagreed.
	check() (failed int, err error)
}

type workload struct {
	name  string
	meshN int
	// prepare generates the workload's inputs from seed; it is not timed.
	prepare func(sys *core.System, seed int64) runner
}

var workloads = []workload{
	{name: "flow", meshN: 40, prepare: newFlowRun},
	{name: "validate", meshN: 40, prepare: newValidateRun},
	{name: "grid", meshN: 128, prepare: newGridRun},
}

// pct returns 100·num/den, or 0 when den is 0.
func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// --- flow: the release pipeline as cmd/flow runs it, artifacts in memory.

type flowRun struct {
	sys      *core.System
	conv, nw *core.FlowResult
	// bufs hold the written artifacts: conventional patterns,
	// noise-tolerant patterns, Verilog, SPEF, SDF.
	bufs [5]bytes.Buffer
}

func newFlowRun(sys *core.System, _ int64) runner {
	return &flowRun{sys: sys}
}

func (f *flowRun) pass(r *recorder) (passOut, error) {
	sys := f.sys
	var (
		stat     *core.StatAnalysis
		conv, nw *core.FlowResult
		err      error
	)
	if err = r.span("statistical", "statistical", func() (err error) {
		stat, err = sys.Statistical()
		return err
	}); err != nil {
		return passOut{}, err
	}
	if err = r.span("atpg", "conventional", func() (err error) {
		conv, err = sys.ConventionalFlow(0)
		return err
	}); err != nil {
		return passOut{}, err
	}
	if err = r.span("atpg", "steps", func() (err error) {
		nw, err = sys.NewProcedureFlow(0)
		return err
	}); err != nil {
		return passOut{}, err
	}
	writers := []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return pattern.Write(b, sys.D, conv.Patterns) },
		func(b *bytes.Buffer) error { return pattern.Write(b, sys.D, nw.Patterns) },
		func(b *bytes.Buffer) error { return verilog.Write(b, sys.D) },
		func(b *bytes.Buffer) error { return parasitic.WriteSPEF(b, sys.D) },
		func(b *bytes.Buffer) error { return sdf.Write(b, sys.D, sys.Delays) },
	}
	written := 0
	if err = r.span("io", "write", func() error {
		for i, w := range writers {
			f.bufs[i].Reset()
			if err := w(&f.bufs[i]); err != nil {
				return err
			}
			written += f.bufs[i].Len()
		}
		return nil
	}); err != nil {
		return passOut{}, err
	}
	var convProf, newProf []core.PatternProfile
	if err = r.span("sim", "profile", func() (err error) {
		if convProf, err = sys.ProfilePatterns(conv); err != nil {
			return err
		}
		newProf, err = sys.ProfilePatterns(nw)
		return err
	}); err != nil {
		return passOut{}, err
	}
	var grade *core.QualityReport
	if err = r.span("faultsim", "grade", func() (err error) {
		grade, err = sys.GradeDetections(conv, 2000)
		return err
	}); err != nil {
		return passOut{}, err
	}
	f.conv, f.nw = conv, nw

	nConv, nNew := len(conv.Patterns), len(nw.Patterns)
	thr := stat.ThresholdMW[soc.B5]
	convAbove := core.AboveThreshold(convProf, soc.B5, thr)
	above := core.AboveThreshold(newProf, soc.B5, thr)
	aborted := conv.Counts.Aborted + nw.Counts.Aborted
	targeted := conv.Counts.Total + nw.Counts.Total
	detected := conv.Counts.Detected + nw.Counts.Detected
	out := passOut{
		attempted: targeted + nConv + nNew,
		outputs:   detected,
		rateSpan:  "pass",
		values: map[string]float64{
			"flow.conv_coverage_pct": 100 * conv.Counts.TestCoverage(),
			"flow.new_coverage_pct":  100 * nw.Counts.TestCoverage(),
			"flow.conv_patterns":     float64(nConv),
			"flow.new_patterns":      float64(nNew),
			"flow.conv_above_b5_pct": pct(convAbove, len(convProf)),
			"flow.new_above_b5_pct":  pct(above, len(newProf)),
			"atpg.aborted_share":     float64(aborted) / float64(targeted),
			"atpg.detected_per_pattern": float64(detected) /
				float64(max(nConv+nNew, 1)),
			"io.bytes": float64(written),
		},
	}
	out.digest = fmt.Sprintf("%d/%d %v %v %d %d %d %.9g", nConv, nNew, conv.Counts, nw.Counts,
		convAbove, above, len(grade.Grades), grade.MeanSlack)
	return out, nil
}

// check reads both written pattern files back and re-fault-simulates both
// final pattern sets on a fresh fault list: every written pattern must
// round-trip, and every detection ATPG claimed must be reproduced.
func (f *flowRun) check() (int, error) {
	failed := 0
	for i, fr := range []*core.FlowResult{f.conv, f.nw} {
		back, err := pattern.Read(bytes.NewReader(f.bufs[i].Bytes()), f.sys.D)
		if err != nil {
			return 0, fmt.Errorf("read back %s patterns: %w", fr.Name, err)
		}
		failed += patternMismatches(fr.Patterns, back)
		regraded, _ := faultGrade(f.sys, fr.Patterns, fr.Dom)
		for _, fi := range fr.Subset {
			if fr.Faults.Status[fi] == fault.Detected && regraded.Status[fi] != fault.Detected {
				failed++
			}
		}
	}
	return failed, nil
}

// patternMismatches counts patterns of want that got differs from.
func patternMismatches(want, got []atpg.Pattern) int {
	bad := max(len(want)-len(got), 0)
	for i := range min(len(want), len(got)) {
		w, g := &want[i], &got[i]
		if !slices.Equal(w.V1, g.V1) || !slices.Equal(w.PIs, g.PIs) || w.Target != g.Target ||
			w.Step != g.Step || !slices.Equal(w.Secondaries, g.Secondaries) {
			bad++
		}
	}
	return bad
}

// --- validate: per-pattern validation of seed-generated pattern sets.

type mixState struct {
	mix  mix
	pats []atpg.Pattern
	// outputs of the last pass, for check
	fr   *core.FlowResult
	prof []core.PatternProfile
	ir   []core.IRDropSummary
}

type validateRun struct {
	sys   *core.System
	mixes []*mixState
}

func newValidateRun(sys *core.System, seed int64) runner {
	v := &validateRun{sys: sys}
	for i, m := range []mix{denseMix, sparseMix} {
		v.mixes = append(v.mixes, &mixState{mix: m, pats: genPatterns(sys, m, seed*7919+int64(i))})
	}
	return v
}

func (v *validateRun) pass(r *recorder) (passOut, error) {
	sys := v.sys
	out := passOut{rateSpan: "pass", values: map[string]float64{}}
	for _, ms := range v.mixes {
		var (
			fr   *core.FlowResult
			prof []core.PatternProfile
			ir   []core.IRDropSummary
		)
		err := r.span("bench", "mix:"+ms.mix.name, func() error {
			if err := r.span("faultsim", "screen", func() error {
				_, err := sys.ScreenPatterns(&core.FlowResult{Name: ms.mix.name, Patterns: ms.pats})
				return err
			}); err != nil {
				return err
			}
			_ = r.span("faultsim", "drop", func() error {
				l, subset := faultGrade(sys, ms.pats, 0)
				fr = &core.FlowResult{Name: ms.mix.name, Patterns: ms.pats,
					Faults: l, Subset: subset, Counts: l.CountOf(subset)}
				return nil
			})
			if err := r.span("sim", "profile", func() (err error) {
				prof, err = sys.ProfilePatterns(fr)
				return err
			}); err != nil {
				return err
			}
			if err := r.span("pgrid", "irdrop", func() (err error) {
				ir, err = sys.DynamicIRDropAll(fr, core.ModelSCAP)
				return err
			}); err != nil {
				return err
			}
			return r.span("faultsim", "grade", func() error {
				_, err := sys.GradeDetections(fr, 2000)
				return err
			})
		})
		if err != nil {
			return passOut{}, fmt.Errorf("%s mix: %w", ms.mix.name, err)
		}
		ms.fr, ms.prof, ms.ir = fr, prof, ir
		n := len(ms.pats)
		out.attempted += n + 2*n // patterns validated, rail solves
		out.outputs += n
		out.values["validate."+ms.mix.name+"_patterns_per_s"] = float64(n) / r.seconds("mix:"+ms.mix.name)
		out.values["validate."+ms.mix.name+"_coverage_pct"] = 100 * fr.Counts.TestCoverage()
		out.digest += fmt.Sprintf("%s %v %.9g %.9g;", ms.mix.name, fr.Counts, sumSCAP(prof), sumDrop(ir))
	}
	return out, nil
}

// check recomputes a sample of each mix's patterns on the exact serial
// path (Workers = 1): the per-pattern SCAP, CAP, STW and toggle figures
// and the per-block worst drops must be bit-identical to the pass's.
func (v *validateRun) check() (int, error) {
	sys := v.sys
	saved := sys.Workers
	sys.Workers = 1
	defer func() { sys.Workers = saved }()
	failed := 0
	for _, ms := range v.mixes {
		idx := sample(len(ms.pats), 16)
		prof, err := sys.ProfilePatternsAt(ms.fr, idx)
		if err != nil {
			return 0, err
		}
		ir, err := sys.DynamicIRDropAll(subFlow(ms.fr, idx), core.ModelSCAP)
		if err != nil {
			return 0, err
		}
		for k, i := range idx {
			a, b := &prof[k], &ms.prof[i]
			if a.ChipSCAPVdd != b.ChipSCAPVdd || a.ChipCAPVdd != b.ChipCAPVdd || a.STW != b.STW ||
				a.Toggles != b.Toggles || !slices.Equal(a.BlockSCAPVdd, b.BlockSCAPVdd) ||
				!slices.Equal(ir[k].WorstVDD, ms.ir[i].WorstVDD) ||
				!slices.Equal(ir[k].WorstVSS, ms.ir[i].WorstVSS) {
				failed++
			}
		}
	}
	return failed, nil
}

// sample returns k pattern indexes spread evenly over [0, n).
func sample(n, k int) []int {
	k = min(k, n)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// subFlow returns fr restricted to the patterns at idx.
func subFlow(fr *core.FlowResult, idx []int) *core.FlowResult {
	sub := *fr
	sub.Patterns = make([]atpg.Pattern, len(idx))
	for k, i := range idx {
		sub.Patterns[k] = fr.Patterns[i]
	}
	return &sub
}

func sumSCAP(prof []core.PatternProfile) float64 {
	s := 0.0
	for i := range prof {
		s += prof[i].ChipSCAPVdd
	}
	return s
}

func sumDrop(ir []core.IRDropSummary) float64 {
	s := 0.0
	for i := range ir {
		s += ir[i].WorstVDD[len(ir[i].WorstVDD)-1] + ir[i].WorstVSS[len(ir[i].WorstVSS)-1]
	}
	return s
}

// --- grid: fine-mesh IR-drop sign-off.

const (
	gridPatterns = 128
	gridTrials   = 256
)

type gridRun struct {
	sys  *core.System
	seed int64
	fr   *core.FlowResult
	ir   []core.IRDropSummary
}

func newGridRun(sys *core.System, seed int64) runner {
	m := sparseMix
	m.patterns = gridPatterns
	pats := genPatterns(sys, m, seed*7919+2)
	return &gridRun{sys: sys, seed: seed, fr: &core.FlowResult{Name: m.name, Patterns: pats}}
}

func (g *gridRun) pass(r *recorder) (passOut, error) {
	sys := g.sys
	var (
		ir []core.IRDropSummary
		mc *core.MCResult
	)
	if err := r.span("statistical", "statistical", func() error {
		_, err := sys.Statistical()
		return err
	}); err != nil {
		return passOut{}, err
	}
	if err := r.span("pgrid", "irdrop", func() (err error) {
		ir, err = sys.DynamicIRDropAll(g.fr, core.ModelSCAP)
		return err
	}); err != nil {
		return passOut{}, err
	}
	if err := r.span("pgrid", "mc", func() (err error) {
		mc, err = sys.MonteCarloIRDrop(gridTrials, g.seed)
		return err
	}); err != nil {
		return passOut{}, err
	}
	g.ir = ir
	nb := sys.D.NumBlocks
	return passOut{
		attempted: gridPatterns + 2*gridPatterns + gridTrials,
		outputs:   gridPatterns,
		rateSpan:  "irdrop",
		values: map[string]float64{
			"grid.irdrop_patterns_per_s": gridPatterns / r.seconds("irdrop"),
			"grid.mc_trials_per_s":       gridTrials / r.seconds("mc"),
		},
		digest: fmt.Sprintf("%.9g %.9g %.9g", sumDrop(ir), mc.MeanVDD[nb], mc.P95VDD[nb]),
	}, nil
}

// check re-solves a sample of the pass's patterns on a second solver
// tier; every per-block worst drop must agree within 1 µV.
func (g *gridRun) check() (int, error) {
	sys := g.sys
	saved := sys.Solver
	sys.Solver = core.SolverSparse
	if saved == core.SolverSparse {
		sys.Solver = core.SolverFactored
	}
	defer func() { sys.Solver = saved }()
	idx := sample(len(g.fr.Patterns), 16)
	ir, err := sys.DynamicIRDropAll(subFlow(g.fr, idx), core.ModelSCAP)
	if err != nil {
		return 0, err
	}
	failed := 0
	for k, i := range idx {
		if maxDiff(ir[k].WorstVDD, g.ir[i].WorstVDD) > 1e-6 || maxDiff(ir[k].WorstVSS, g.ir[i].WorstVSS) > 1e-6 {
			failed++
		}
	}
	return failed, nil
}

func maxDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
	}
	return d
}
