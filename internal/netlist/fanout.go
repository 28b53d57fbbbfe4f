package netlist

import "slices"

// Fanout is a flat view of a design's combinational fanout in compressed
// sparse row form: the combinational loads of net n are
// loads[off[n]:off[n+1]], in Net.Loads order with flop loads filtered out
// (flop inputs are consumed by capture, not by propagation). It also
// carries each instance's output net and its position in TopoOrder, so
// the hot fanout walks of implication, fault simulation and settling read
// two int32 arrays instead of chasing Nets[].Loads into the wide Instance
// records. A Fanout is immutable and safe for concurrent use.
type Fanout struct {
	off   []int32
	loads []InstID
	out   []NetID  // by InstID: the instance's output net
	pos   []int32  // by InstID: position in order
	order []InstID // TopoOrder
}

// Fanout returns the design's combinational-fanout view. It is built
// once, together with TopoOrder and Levels, so concurrent first callers
// share one view; any structural edit (AddNet, AddInst, SetInput,
// ConvertToScan) discards it. It returns an error if the combinational
// logic contains a cycle.
func (d *Design) Fanout() (*Fanout, error) {
	if err := d.derive(); err != nil {
		return nil, err
	}
	return d.fanout, nil
}

// buildFanout fills the load rows and output nets; derive adds the
// topological order and positions.
func buildFanout(d *Design) *Fanout {
	f := &Fanout{
		off: make([]int32, len(d.Nets)+1),
		out: make([]NetID, len(d.Insts)),
		pos: make([]int32, len(d.Insts)),
	}
	total := 0
	for i := range d.Insts {
		f.out[i] = d.Insts[i].Out
		total += len(d.Insts[i].In)
	}
	f.loads = make([]InstID, 0, total)
	for n := range d.Nets {
		for _, ld := range d.Nets[n].Loads {
			if !d.Insts[ld.Inst].IsFlop() {
				f.loads = append(f.loads, ld.Inst)
			}
		}
		f.off[n+1] = int32(len(f.loads))
	}
	return f
}

// Loads returns the combinational loads of net n, in Net.Loads order (an
// instance loading n on several pins appears once per pin). The slice is
// shared: callers must not modify it.
func (f *Fanout) Loads(n NetID) []InstID { return f.loads[f.off[n]:f.off[n+1]] }

// ConeMarks is caller-owned scratch for Fanout.Cone: a generation-stamped
// visited set, so a cone walk costs time proportional to the cone and
// allocates nothing once the marks are sized. The zero value is ready to
// use; one ConeMarks must not be shared between goroutines.
type ConeMarks struct {
	seen []uint32 // by InstID: == gen means already in the current cone
	gen  uint32
}

// Cone returns dst[:0] extended with the combinational instances reachable
// from net start through combinational logic (flops stop propagation), in
// TopoOrder order. The walk visits only the cone and its fanout edges.
func (f *Fanout) Cone(dst []InstID, start NetID, m *ConeMarks) []InstID {
	if len(m.seen) != len(f.pos) {
		m.seen, m.gen = make([]uint32, len(f.pos)), 0
	}
	m.gen++
	if m.gen == 0 { // stamp wrapped: clear the slate once
		clear(m.seen)
		m.gen = 1
	}
	// Breadth-first over dst itself: every reached instance is appended
	// once, and the loads of each appended instance's output net are
	// expanded in turn.
	dst = dst[:0]
	for i, n := 0, start; ; i++ {
		for _, id := range f.Loads(n) {
			if m.seen[id] != m.gen {
				m.seen[id] = m.gen
				dst = append(dst, id)
			}
		}
		if i == len(dst) {
			break
		}
		n = f.out[dst[i]]
	}
	// Topological order: sort the positions in place, then map back.
	for i, id := range dst {
		dst[i] = InstID(f.pos[id])
	}
	slices.Sort(dst)
	for i, p := range dst {
		dst[i] = f.order[p]
	}
	return dst
}
