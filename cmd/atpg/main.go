// Command atpg generates transition-delay-fault patterns for the synthetic
// SOC, either conventionally (random fill, whole domain at once) or with
// the paper's supply-noise-tolerant procedure (per-block steps, fill-0,
// hot block last), and reports coverage and pattern statistics.
//
// Usage:
//
//	atpg [-scale N] [-flow conventional|new|single] [-dom D] [-fill random|fill0|fill1|adjacent]
//	     [-mode LOC|LOS] [-max M] [-workers W]
//	     [-report F.json] [-metrics-addr :6060] [-trace F.json] [-snapshot-interval D]
//
// -workers shards test generation (and the fault-dropping sweeps) across
// the worker pool; the pattern set is bit-identical for every worker
// count.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scap/internal/atpg"
	"scap/internal/core"
	"scap/internal/fault"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/pattern"
	"scap/internal/soc"
)

func main() {
	scale := flag.Int("scale", 8, "design scale divisor")
	flow := flag.String("flow", "conventional", "conventional | new | single")
	dom := flag.Int("dom", 0, "target clock domain index (0 = clka)")
	fillName := flag.String("fill", "random", "don't-care fill: random | fill0 | fill1 | adjacent")
	modeName := flag.String("mode", "LOC", "launch mode: LOC | LOS")
	maxPats := flag.Int("max", 0, "pattern limit for -flow single (0 = unlimited)")
	workers := flag.Int("workers", 0, "generation + fault-sim workers (0 = all cores, 1 = serial)")
	outPath := flag.String("o", "", "write the generated pattern set to this file")
	obsFlags := obs.RegisterFlags()
	flag.Parse()

	fill, ok := map[string]atpg.Fill{
		"random": atpg.FillRandom, "fill0": atpg.Fill0,
		"fill1": atpg.Fill1, "adjacent": atpg.FillAdjacent,
	}[*fillName]
	if !ok {
		fmt.Fprintln(os.Stderr, "atpg: unknown fill", *fillName)
		os.Exit(2)
	}
	mode := atpg.LOC
	if *modeName == "LOS" {
		mode = atpg.LOS
	} else if *modeName != "LOC" {
		fmt.Fprintln(os.Stderr, "atpg: unknown mode", *modeName)
		os.Exit(2)
	}
	if err := parallel.ValidateWorkers(*workers); err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(2)
	}

	if err := obsFlags.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}

	t0 := time.Now()
	cfg := core.DefaultConfig(*scale)
	cfg.Workers = *workers
	sys, err := core.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}
	finishObs := func() {
		if err := obsFlags.Finish(os.Stdout, "atpg", sys.Cfg); err != nil {
			fmt.Fprintln(os.Stderr, "atpg:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("built %d-instance design in %v\n", sys.D.NumInsts(), time.Since(t0).Round(time.Millisecond))

	var fr *core.FlowResult
	switch *flow {
	case "conventional":
		fr, err = sys.ConventionalFlow(*dom)
	case "new":
		fr, err = sys.NewProcedureFlow(*dom)
	case "single":
		l := sys.NewFaultList()
		var res *atpg.Result
		res, err = sys.ATPG(l, atpg.Options{
			Dom: *dom, Fill: fill, Mode: mode, Seed: 1, MaxPatterns: *maxPats,
		})
		if err == nil {
			c := res.Counts
			fmt.Printf("single run (%v, %v): %d patterns\n", mode, fill, len(res.Patterns))
			if g := res.Gen; g.Waves > 0 && len(res.Patterns) > 0 {
				fmt.Printf("  implication: %d waves, %d decisions, %d backtracks, %d cone gates\n",
					g.Waves, g.Decisions, g.Backtracks, g.ConeGates)
			}
			fmt.Printf("  faults: %d targeted, %d detected, %d aborted, %d untestable\n",
				c.Total, c.Detected, c.Aborted, c.Untestable)
			fmt.Printf("  test coverage %.2f%%, fault coverage %.2f%%\n",
				100*c.TestCoverage(), 100*c.FaultCoverage())
			finishObs()
			return
		}
	default:
		fmt.Fprintln(os.Stderr, "atpg: unknown flow", *flow)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpg:", err)
		os.Exit(1)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atpg:", err)
			os.Exit(1)
		}
		if err := pattern.Write(f, sys.D, fr.Patterns); err != nil {
			fmt.Fprintln(os.Stderr, "atpg:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "atpg:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d patterns to %s\n", len(fr.Patterns), *outPath)
	}

	c := fr.Counts
	fmt.Printf("%s flow, domain %s: %d patterns in %v\n",
		fr.Name, sys.D.Domains[*dom].Name, len(fr.Patterns), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  faults: %d targeted, %d detected, %d aborted, %d untestable\n",
		c.Total, c.Detected, c.Aborted, c.Untestable)
	fmt.Printf("  test coverage %.2f%%, fault coverage %.2f%%\n",
		100*c.TestCoverage(), 100*c.FaultCoverage())
	perStep := map[int]int{}
	for i := range fr.Patterns {
		perStep[fr.Patterns[i].Step]++
	}
	if len(perStep) > 1 {
		for s := 0; s < len(core.StepBlocks); s++ {
			names := ""
			for _, b := range core.StepBlocks[s] {
				if names != "" {
					names += ","
				}
				names += soc.BlockName(b)
			}
			fmt.Printf("  step %d (%s): %d patterns\n", s+1, names, perStep[s])
		}
	}
	// Per-block fault disposition.
	fmt.Println("  per-block detected/total:")
	for b := 0; b < sys.D.NumBlocks; b++ {
		sub := intersect(fr.Faults, fr.Subset, b)
		cc := fr.Faults.CountOf(sub)
		fmt.Printf("    %s: %d/%d\n", soc.BlockName(b), cc.Detected, cc.Total)
	}
	finishObs()
}

func intersect(l *fault.List, subset []int, block int) []int {
	var out []int
	for _, fi := range subset {
		if l.Faults[fi].Block == block {
			out = append(out, fi)
		}
	}
	return out
}
