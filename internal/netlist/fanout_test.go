package netlist_test

import (
	"sync"
	"testing"

	"scap/internal/netlist"
	"scap/internal/soc"
)

func genSOC(t *testing.T, scale int) *netlist.Design {
	t.Helper()
	d, _, err := soc.Generate(soc.DefaultConfig(scale))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFanoutViewMatchesNetlistSOC checks every CSR row and every net's
// cone of a scale-64 SOC against the netlist and the topo-scan oracle.
func TestFanoutViewMatchesNetlistSOC(t *testing.T) {
	netlist.CheckFanoutView(t, genSOC(t, 64))
}

// TestFanoutConcurrentFirstAccess races the first accesses of a fresh
// design's derived structure: every goroutine must get the one shared
// view, and -race must see no unsynchronized lazy write.
func TestFanoutConcurrentFirstAccess(t *testing.T) {
	d := genSOC(t, 64)
	// A structural edit discards whatever derived structure Generate
	// built, so the goroutines below race on its first build. The
	// dangling net has no loads and is never walked from.
	d.AddNet("spare")
	const n = 8
	views := make([]*netlist.Fanout, n)
	cones := make([][]netlist.InstID, n)
	var wg sync.WaitGroup
	start := make(chan struct{}) // release every goroutine at once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			switch i % 3 { // mix the entry points that trigger the build
			case 1:
				_, err = d.Levels()
			case 2:
				_, err = d.TopoOrder()
			}
			if err != nil {
				t.Error(err)
				return
			}
			fo, err := d.Fanout()
			if err != nil {
				t.Error(err)
				return
			}
			views[i] = fo
			cones[i] = fo.Cone(nil, d.Insts[d.Flops[0]].Out, &netlist.ConeMarks{})
		}(i)
	}
	close(start)
	wg.Wait()
	if len(cones[0]) == 0 {
		t.Fatal("empty cone: the check exercises nothing")
	}
	for i := 1; i < n; i++ {
		if views[i] != views[0] {
			t.Fatalf("goroutine %d got a different view", i)
		}
		if len(cones[i]) != len(cones[0]) {
			t.Fatalf("goroutine %d: cone of %d gates, want %d", i, len(cones[i]), len(cones[0]))
		}
	}
}
