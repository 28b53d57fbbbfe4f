// Package sim provides the three simulators the reproduction is built on:
//
//   - a scalar three-valued zero-delay simulator (ATPG implication, pattern
//     expansion, launch-off-capture frame derivation);
//   - a 64-way parallel-pattern simulator over logic.Word (fault dropping);
//   - an event-driven gate-level timing simulator with per-instance delays
//     and clock-tree skew (the stand-in for Synopsys VCS; it streams toggle
//     events to a callback exactly like the paper's PLI-based SCAP
//     calculator, so no VCD file is needed).
package sim

import (
	"fmt"

	"scap/internal/cell"
	"scap/internal/logic"
	"scap/internal/netlist"
)

// Simulator evaluates the combinational portion of a design in topological
// order. It is stateless; callers own the net-value vectors.
type Simulator struct {
	d     *netlist.Design
	fo    *netlist.Fanout
	order []netlist.InstID // combinational instances only, topo order
	// level[inst] is the gate's logic level — 1 + the max level of its
	// combinational driver instances, 0 when every input comes from a
	// flop, a PI, or an undriven net; -1 for flops. Levels are strictly
	// increasing along combinational edges, so the selective-trace
	// settle of LaunchScratch can drain dirty gates through per-level
	// buckets (O(1) push and pop, each gate evaluated at most once)
	// instead of a priority queue.
	level     []int32
	numLevels int
	// flopSlot[inst] is the instance's position in d.Flops, -1 for
	// combinational gates: the event loop's branch-free replacement for
	// an IsFlop check plus a map lookup.
	flopSlot []int32
}

// New builds a Simulator for d. It fails if the design has a combinational
// cycle.
func New(d *netlist.Design) (*Simulator, error) {
	full, err := d.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	fo, err := d.Fanout()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{d: d, fo: fo}
	for _, id := range full {
		if !d.Inst(id).IsFlop() {
			s.order = append(s.order, id)
		}
	}
	s.level = make([]int32, d.NumInsts())
	for i := range s.level {
		s.level[i] = -1
	}
	for _, id := range s.order {
		lv := int32(0)
		for _, n := range d.Inst(id).In {
			drv := d.Nets[n].Driver
			if drv == netlist.NoInst || d.Inst(drv).IsFlop() {
				continue
			}
			if l := s.level[drv] + 1; l > lv {
				lv = l
			}
		}
		s.level[id] = lv
		if int(lv) >= s.numLevels {
			s.numLevels = int(lv) + 1
		}
	}
	s.flopSlot = make([]int32, d.NumInsts())
	for i := range s.flopSlot {
		s.flopSlot[i] = -1
	}
	for i, f := range d.Flops {
		s.flopSlot[f] = int32(i)
	}
	return s, nil
}

// Design returns the simulated design.
func (s *Simulator) Design() *netlist.Design { return s.d }

// NewNets returns a fresh all-X net-value vector.
func (s *Simulator) NewNets() []logic.V {
	nets := make([]logic.V, s.d.NumNets())
	for i := range nets {
		nets[i] = logic.X
	}
	return nets
}

// Propagate evaluates every combinational gate in topological order.
// Primary-input nets and flop output (Q) nets must be set by the caller;
// everything else is overwritten.
func (s *Simulator) Propagate(nets []logic.V) {
	d := s.d
	var buf [4]logic.V
	for _, id := range s.order {
		inst := &d.Insts[id]
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		nets[inst.Out] = cell.Eval(inst.Kind, in)
	}
}

// CaptureState returns the value each flop would capture from the current
// net values (indexed like d.Flops). Scan flops honor their SE pin: SE=0
// captures D, SE=1 captures SI.
func (s *Simulator) CaptureState(nets []logic.V) []logic.V {
	return s.CaptureStateInto(make([]logic.V, len(s.d.Flops)), nets)
}

// CaptureStateInto is the buffer-reusing form of CaptureState: it writes
// the captured per-flop values into out (which must be len(d.Flops)) and
// returns it.
func (s *Simulator) CaptureStateInto(out []logic.V, nets []logic.V) []logic.V {
	d := s.d
	var buf [4]logic.V
	for i, f := range d.Flops {
		inst := &d.Insts[f]
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		out[i] = cell.Eval(inst.Kind, in)
	}
	return out
}

// ApplyState writes a per-flop state vector onto the flop output nets.
func (s *Simulator) ApplyState(nets []logic.V, state []logic.V) {
	for i, f := range s.d.Flops {
		nets[s.d.Insts[f].Out] = state[i]
	}
}

// SetPIs writes primary-input values (indexed like d.PIs) onto the PI nets.
func (s *Simulator) SetPIs(nets []logic.V, pis []logic.V) {
	for i, n := range s.d.PIs {
		nets[n] = pis[i]
	}
}

// NewNetsW returns a fresh all-X parallel net-value vector.
func (s *Simulator) NewNetsW() []logic.Word {
	return make([]logic.Word, s.d.NumNets()) // zero Word == all-X
}

// PropagateW is the 64-way parallel counterpart of Propagate.
func (s *Simulator) PropagateW(nets []logic.Word) {
	d := s.d
	var buf [4]logic.Word
	for _, id := range s.order {
		inst := &d.Insts[id]
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		nets[inst.Out] = cell.EvalWord(inst.Kind, in)
	}
}

// CaptureStateW is the 64-way parallel counterpart of CaptureState.
func (s *Simulator) CaptureStateW(nets []logic.Word) []logic.Word {
	d := s.d
	out := make([]logic.Word, len(d.Flops))
	var buf [4]logic.Word
	for i, f := range d.Flops {
		inst := &d.Insts[f]
		in := buf[:len(inst.In)]
		for p, n := range inst.In {
			in[p] = nets[n]
		}
		out[i] = cell.EvalWord(inst.Kind, in)
	}
	return out
}

// ApplyStateW writes a parallel per-flop state vector onto flop output nets.
func (s *Simulator) ApplyStateW(nets []logic.Word, state []logic.Word) {
	for i, f := range s.d.Flops {
		nets[s.d.Insts[f].Out] = state[i]
	}
}

// SetPIsW writes parallel primary-input values onto the PI nets.
func (s *Simulator) SetPIsW(nets []logic.Word, pis []logic.Word) {
	for i, n := range s.d.PIs {
		nets[n] = pis[i]
	}
}
