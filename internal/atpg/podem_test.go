package atpg

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
)

// cubeEqual reports whether two cubes specify exactly the same care bits.
func cubeEqual(a, b Cube) bool {
	if len(a.State) != len(b.State) || len(a.PIs) != len(b.PIs) {
		return false
	}
	for k, v := range a.State {
		if b.State[k] != v {
			return false
		}
	}
	for k, v := range a.PIs {
		if b.PIs[k] != v {
			return false
		}
	}
	return true
}

func cubeString(c Cube) string {
	return fmt.Sprintf("state=%v pis=%v", c.State, c.PIs)
}

// generateSequential is the reference generateWith checks against: the
// same fault setup and search, but with the classical base application
// that settles one implication wave per care bit, in sorted index order,
// instead of one batched wave for the whole base.
func (e *engine) generateSequential(f *fault.Fault, base Cube) (Cube, engineResult) {
	defer e.teardown()
	if !e.setupFault(f) {
		return Cube{}, genUntestable
	}
	for _, idx := range sortedKeys(base.State) {
		f := e.d.Flops[idx]
		if e.val1[e.d.Insts[f].Out] == logic.X {
			e.assignInput(inputRef{isPI: false, idx: idx}, base.State[idx])
		}
	}
	for _, idx := range sortedKeys(base.PIs) {
		n := e.d.PIs[idx]
		if e.val1[n] == logic.X {
			e.assignInput(inputRef{isPI: true, idx: idx}, base.PIs[idx])
		}
	}
	return e.search()
}

func sortedKeys(m map[int]logic.V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestPackedEngineMatchesScalarPerFault is the oracle check of the one
// production path: for every fault of the domain, generateWith — whose
// base cube is packed into a single implication wave — must return
// exactly the cube, disposition, decision count and backtrack count of
// generateSequential, which applies the base one scalar wave per care
// bit. Batching the base is an order-preserving optimization, never a
// heuristic. Exercised for both launch modes and with accumulated bases,
// which is how dynamic compaction calls the engine.
func TestPackedEngineMatchesScalarPerFault(t *testing.T) {
	for _, scale := range []int{96, 64} {
		for _, mode := range []LaunchMode{LOC, LOS} {
			t.Run(fmt.Sprintf("scale%d_%v", scale, mode), func(t *testing.T) {
				r := newRig(t, scale)
				cfg := engineConfig{dom: 0, mode: mode, limit: 64}
				if mode == LOS {
					cfg.shiftPrev = shiftPrevMap(t, r)
				}
				e, err := newEngine(r.d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				subset := r.l.InDomain(0)
				var base Cube
				withBase, mismatch := 0, 0
				for _, fi := range subset {
					f := &r.l.Faults[fi]
					s0 := e.stats
					cs, ds := e.generateSequential(f, base)
					s1 := e.stats
					cb, db := e.generateWith(f, base)
					seq, bat := statsDelta(s1, s0), statsDelta(e.stats, s1)
					switch {
					case ds != db:
						t.Errorf("fault %d (net %d %v): sequential disp %d, batched disp %d",
							fi, f.Net, f.Type, ds, db)
						mismatch++
					case ds == genSuccess && !cubeEqual(cs, cb):
						t.Errorf("fault %d (net %d %v): cube mismatch\n  sequential: %s\n  batched:    %s",
							fi, f.Net, f.Type, cubeString(cs), cubeString(cb))
						mismatch++
					case seq.decisions != bat.decisions || seq.backtracks != bat.backtracks:
						t.Errorf("fault %d (net %d %v): effort differs: sequential %+v, batched %+v",
							fi, f.Net, f.Type, seq, bat)
						mismatch++
					}
					if mismatch > 5 {
						t.Fatalf("too many mismatches, stopping")
					}
					if len(base.State) > 0 {
						withBase++
					}
					// Accumulate a base cube from the successes so the
					// compaction path (a non-empty base) is exercised too.
					if ds == genSuccess && (len(base.State) == 0 || len(base.State) > 40) {
						base = cs
					}
				}
				if withBase == 0 {
					t.Fatal("no fault ran against a non-empty base")
				}
			})
		}
	}
}

// shiftPrevMap reproduces the LOS frame-1 source map the runner builds.
func shiftPrevMap(t *testing.T, r *rig) map[netlist.InstID]netlist.NetID {
	t.Helper()
	return shiftSources(r.d, r.sc)
}

// TestRunShardedBitIdentical checks the epoch-sharded generator yields the
// same patterns, statuses and detection attribution for 1, 2 and 8
// workers. Run with -race this also exercises the parallel section for
// data races.
func TestRunShardedBitIdentical(t *testing.T) {
	var ref *Result
	var refL *fault.List
	for _, w := range []int{1, 2, 8} {
		r := newRig(t, 96)
		res, err := Run(r.fs, r.l, r.sc, Options{
			Dom: 0, Fill: FillRandom, Seed: 5, GenWorkers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refL = res, r.l
			continue
		}
		t.Run(fmt.Sprintf("workers%d", w), func(t *testing.T) {
			comparePatternSets(t, ref, res, refL, r.l)
			if res.Gen != ref.Gen {
				t.Errorf("generation stats differ: w=1 %+v, w=%d %+v", ref.Gen, w, res.Gen)
			}
		})
	}
}

func comparePatternSets(t *testing.T, a, b *Result, la, lb *fault.List) {
	t.Helper()
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("pattern count differs: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		pa, pb := &a.Patterns[i], &b.Patterns[i]
		if pa.Target != pb.Target {
			t.Fatalf("pattern %d target differs: %d vs %d", i, pa.Target, pb.Target)
		}
		if len(pa.Secondaries) != len(pb.Secondaries) {
			t.Fatalf("pattern %d secondary count differs: %v vs %v", i, pa.Secondaries, pb.Secondaries)
		}
		for j := range pa.Secondaries {
			if pa.Secondaries[j] != pb.Secondaries[j] {
				t.Fatalf("pattern %d secondaries differ: %v vs %v", i, pa.Secondaries, pb.Secondaries)
			}
		}
		for j := range pa.V1 {
			if pa.V1[j] != pb.V1[j] {
				t.Fatalf("pattern %d V1[%d] differs: %v vs %v", i, j, pa.V1[j], pb.V1[j])
			}
		}
		for j := range pa.PIs {
			if pa.PIs[j] != pb.PIs[j] {
				t.Fatalf("pattern %d PI[%d] differs: %v vs %v", i, j, pa.PIs[j], pb.PIs[j])
			}
		}
	}
	if len(la.Status) != len(lb.Status) {
		t.Fatalf("status length differs")
	}
	for i := range la.Status {
		if la.Status[i] != lb.Status[i] {
			t.Fatalf("fault %d status differs: %v vs %v", i, la.Status[i], lb.Status[i])
		}
		if la.DetectedBy[i] != lb.DetectedBy[i] {
			t.Fatalf("fault %d DetectedBy differs: %d vs %d", i, la.DetectedBy[i], lb.DetectedBy[i])
		}
	}
}

// TestFaultHotspotsWorkerIndependent: the per-fault attribution table is
// recorded in the serial epoch merge on deterministic costs (implication
// waves, backtracks), so it must be bit-identical for any GenWorkers
// value — the hotspot list is part of the determinism contract.
func TestFaultHotspotsWorkerIndependent(t *testing.T) {
	run := func(w int) []obs.TopEntry {
		obs.Reset()
		obs.Enable()
		defer func() {
			obs.Reset()
			obs.Disable()
		}()
		r := newRig(t, 96)
		if _, err := Run(r.fs, r.l, r.sc, Options{
			Dom: 0, Fill: FillRandom, Seed: 5, GenWorkers: w,
		}); err != nil {
			t.Fatal(err)
		}
		return tkFaults.Snapshot()
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("serial run recorded no fault hotspots")
	}
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: fault hotspot table differs from serial\nserial: %+v\npar:    %+v",
				w, want, got)
		}
	}
}
