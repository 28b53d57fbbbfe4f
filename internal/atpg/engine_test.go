package atpg

import (
	"sync"
	"testing"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/soc"
)

func TestEngineJustifiesAndTree(t *testing.T) {
	d := netlist.New("tree", cell.New180nm())
	d.NumBlocks = 1
	d.Domains = []netlist.DomainInfo{{Name: "clk", FreqMHz: 50, PeriodNs: 20}}
	n := map[string]netlist.NetID{}
	for _, name := range []string{"q0", "q1", "q2", "qo", "qh", "qv", "i0", "i1", "i2", "a1", "a2", "hv"} {
		n[name] = d.AddNet(name)
	}
	d.AddInst("inv0", cell.Inv, []netlist.NetID{n["q0"]}, n["i0"], 0)
	d.AddInst("inv1", cell.Inv, []netlist.NetID{n["q1"]}, n["i1"], 0)
	d.AddInst("inv2", cell.Inv, []netlist.NetID{n["q2"]}, n["i2"], 0)
	d.AddInst("and1", cell.And2, []netlist.NetID{n["q0"], n["q1"]}, n["a1"], 0)
	d.AddInst("and2", cell.And2, []netlist.NetID{n["a1"], n["q2"]}, n["a2"], 0)
	d.AddInst("invh", cell.Inv, []netlist.NetID{n["qh"]}, n["hv"], 0)
	flopIdx := map[string]int{}
	add := func(name string, dnet, qnet netlist.NetID) {
		id := d.AddInst(name, cell.DFF, []netlist.NetID{dnet}, qnet, 0)
		d.SetDomain(id, 0, false)
		flopIdx[name] = len(d.Flops) - 1
	}
	add("t0", n["i0"], n["q0"])
	add("t1", n["i1"], n["q1"])
	add("t2", n["i2"], n["q2"])
	add("fo", n["a2"], n["qo"])
	add("h", n["qh"], n["qh"])  // D = Q: holds forever
	add("fh", n["hv"], n["qv"]) // observes hv
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}

	eng, err := newEngine(d, engineConfig{dom: 0, limit: 64})
	if err != nil {
		t.Fatal(err)
	}

	// STR on a1: needs frame1 t0=t1=0 (so frame2 q0=q1=1 -> a1 rises) and
	// frame1 t2=0 for propagation through and2.
	cube, disp := eng.generate(&fault.Fault{Net: n["a1"], Type: fault.STR})
	if disp != genSuccess {
		t.Fatalf("STR a1 not generated: %v", disp)
	}
	for _, name := range []string{"t0", "t1", "t2"} {
		if v, ok := cube.State[flopIdx[name]]; !ok || v != logic.Zero {
			t.Fatalf("STR a1 cube: %s = %v (want 0); cube %v", name, v, cube.State)
		}
	}

	// STF on a1: frame1 t0=t1=1, propagation still needs frame2 q2=1 i.e.
	// frame1 t2=0.
	cube, disp = eng.generate(&fault.Fault{Net: n["a1"], Type: fault.STF})
	if disp != genSuccess {
		t.Fatalf("STF a1 not generated: %v", disp)
	}
	if v := cube.State[flopIdx["t0"]]; v != logic.One {
		t.Fatalf("STF a1: t0 = %v, want 1", v)
	}
	if v := cube.State[flopIdx["t1"]]; v != logic.One {
		t.Fatalf("STF a1: t1 = %v, want 1", v)
	}
	if v := cube.State[flopIdx["t2"]]; v != logic.Zero {
		t.Fatalf("STF a1: t2 = %v, want 0", v)
	}

	// hv sits behind a hold flop: its value cannot change between frames,
	// so both transition faults are provably untestable.
	if _, disp := eng.generate(&fault.Fault{Net: n["hv"], Type: fault.STR}); disp != genUntestable {
		t.Fatalf("STR hv disposition %v, want untestable", disp)
	}
	if _, disp := eng.generate(&fault.Fault{Net: n["hv"], Type: fault.STF}); disp != genUntestable {
		t.Fatalf("STF hv disposition %v, want untestable", disp)
	}
}

// TestEnginesConcurrentFirstAccess builds engines on one design from
// several goroutines at once, so the first build of the design's levels
// and fanout view is raced (run under -race), and checks that every
// engine generates exactly the cubes of a serial engine.
func TestEnginesConcurrentFirstAccess(t *testing.T) {
	d, _, err := soc.Generate(soc.DefaultConfig(96))
	if err != nil {
		t.Fatal(err)
	}
	// A structural edit discards whatever derived structure Generate
	// built, so the engines below are the first to access it. The
	// dangling net is never read.
	d.AddNet("spare")
	l := fault.Universe(d)
	subset := l.InDomain(0)
	if len(subset) > 60 {
		subset = subset[:60]
	}
	type outcome struct {
		cube Cube
		disp engineResult
	}
	run := func() ([]outcome, error) {
		e, err := newEngine(d, engineConfig{dom: 0, limit: 64})
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(subset))
		for i, fi := range subset {
			out[i].cube, out[i].disp = e.generate(&l.Faults[fi])
		}
		return out, nil
	}
	const n = 4
	got := make([][]outcome, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if got[w], err = run(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for i := range want {
		if want[i].disp == genSuccess {
			detected++
		}
		for w := 0; w < n; w++ {
			if got[w][i].disp != want[i].disp || !cubeEqual(got[w][i].cube, want[i].cube) {
				t.Fatalf("fault %d: worker %d got %v %s, serial %v %s", subset[i], w,
					got[w][i].disp, cubeString(got[w][i].cube), want[i].disp, cubeString(want[i].cube))
			}
		}
	}
	if detected == 0 {
		t.Fatal("no fault generated: the check exercises nothing")
	}
}
