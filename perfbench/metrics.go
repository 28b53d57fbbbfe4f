package main

import "scap/internal/obs"

// endToEndMetrics derives the end-to-end metrics from the untraced passes'
// durations and throughputs.
func endToEndMetrics(setups, durs, rates []float64, peakMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"run_s":            {median(durs), "s"},
		"peak_rss_mb":      {peakMB, "MB"},
		"throughput_per_s": {median(rates), "1/s"},
	}
}

// layerMetrics derives the per-layer metrics of a traced run. Times are
// means over the traced passes of the benchmark's own spans; counts are
// the program's obs counters per traced pass; workload figures come from
// the untraced reference passes, which also give the tracing overhead.
func layerMetrics(buildRep, rep *obs.Report, buildS float64, recs []*recorder,
	plain []passOut, plainDur, tracedDur []float64) map[string]metric {

	n := float64(max(len(recs), 1))
	spanS := func(name string) float64 {
		s := 0.0
		for _, r := range recs {
			s += r.seconds(name)
		}
		return s / n
	}
	c := rep.Counters
	perPass := func(name string) float64 { return float64(c[name]) / n }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	m := map[string]metric{
		"build.s":                  {buildS, "s"},
		"build.grid_calibration_s": {stageMs(buildRep.Stages, "grid-calibration") / 1e3, "s"},
		"statistical.s":            {spanS("statistical"), "s"},
		"atpg.conventional_s":      {spanS("conventional"), "s"},
		"atpg.steps_s":             {spanS("steps"), "s"},
		"atpg.implication_waves":   {perPass("atpg.implication_waves"), "count"},
		"atpg.waves_per_pattern":   {rep.Derived["atpg.waves_per_pattern"], "ratio"},
		"atpg.backtracks":          {perPass("atpg.backtracks"), "count"},
		"faultsim.screen_s":        {spanS("screen"), "s"},
		"faultsim.drop_s":          {spanS("drop"), "s"},
		"faultsim.grade_s":         {spanS("grade"), "s"},
		"faultsim.cone_gate_evals": {perPass("faultsim.cone_gate_evals"), "count"},
		"faultsim.early_exit_share": {
			rep.Derived["faultsim.early_exit_share"], "ratio"},
		"sim.profile_s": {spanS("profile"), "s"},
		"sim.launches":  {perPass("sim.launches"), "count"},
		"sim.events_per_launch": {
			ratio(float64(c["sim.events_dispatched"]), float64(c["sim.launches"])), "ratio"},
		"sim.settle_gates_per_launch": {
			ratio(float64(c["sim.settle_gates_evaluated"]), float64(c["sim.launches"])), "ratio"},
		"sim.settles_skipped_share": {ratio(float64(c["sim.settles_skipped"]),
			float64(c["sim.settles_full"]+c["sim.settles_incremental"]+c["sim.settles_skipped"])), "ratio"},
		"power.toggles_per_launch": {
			ratio(float64(c["power.toggles_metered"]), float64(c["sim.launches"])), "ratio"},
		"pgrid.irdrop_s":       {spanS("irdrop"), "s"},
		"pgrid.mc_s":           {spanS("mc"), "s"},
		"pgrid.factor_builds":  {perPass("pgrid.factor.builds") + perPass("pgrid.sparse.factor.builds"), "count"},
		"parallel.utilization": {rep.Derived["parallel.utilization"], "ratio"},
		"parallel.wait_s":      {(perPass("parallel.capacity_ns") - perPass("parallel.busy_ns")) / 1e9, "s"},
		"io.write_s":           {spanS("write"), "s"},
		"trace.overhead_s":     {median(tracedDur) - median(plainDur), "s"},
		"trace.untraced_run_s": {median(plainDur), "s"},
	}

	// Solves across every tier; a direct solve counts as one iteration,
	// as its Solution.Iterations reports.
	solves, iters := 0.0, 0.0
	for _, tier := range []string{"factored", "sparse", "mg", "sor"} {
		solves += perPass("pgrid." + tier + ".solves")
	}
	iters = perPass("pgrid.factored.solves") + perPass("pgrid.sparse.solves") +
		perPass("pgrid.mg.vcycles") + perPass("pgrid.sor.sweeps")
	m["pgrid.solves"] = metric{solves, "count"}
	m["pgrid.iterations_per_solve"] = metric{ratio(iters, solves), "ratio"}
	m["pgrid.us_per_solve"] = metric{ratio(1e6*(spanS("irdrop")+spanS("mc")), solves), "us"}

	for _, l := range layers {
		s := 0.0
		for _, r := range recs {
			s += r.self[l].Seconds()
		}
		m["self."+l+"_s"] = metric{s / n, "s"}
	}

	// Workload figures: medians over the untraced passes, 0 where the
	// workload does not produce them.
	for name, unit := range workloadValues {
		vals := make([]float64, len(plain))
		for i, o := range plain {
			vals[i] = o.values[name]
		}
		m[name] = metric{median(vals), unit}
	}
	return m
}

// workloadValues gives the unit of every name a pass may report in
// passOut.values.
var workloadValues = map[string]string{
	"flow.conv_coverage_pct":         "%",
	"flow.new_coverage_pct":          "%",
	"flow.conv_patterns":             "count",
	"flow.new_patterns":              "count",
	"flow.conv_above_b5_pct":         "%",
	"flow.new_above_b5_pct":          "%",
	"atpg.aborted_share":             "ratio",
	"atpg.detected_per_pattern":      "ratio",
	"io.bytes":                       "B",
	"validate.dense_patterns_per_s":  "1/s",
	"validate.sparse_patterns_per_s": "1/s",
	"validate.dense_coverage_pct":    "%",
	"validate.sparse_coverage_pct":   "%",
	"grid.irdrop_patterns_per_s":     "1/s",
	"grid.mc_trials_per_s":           "1/s",
}

// stageMs returns the summed wall time of every obs stage named name in
// the span forest, in milliseconds.
func stageMs(stages []*obs.SpanReport, name string) float64 {
	ms := 0.0
	for _, s := range stages {
		if s.Name == name {
			ms += s.WallMs
		}
		ms += stageMs(s.Children, name)
	}
	return ms
}
