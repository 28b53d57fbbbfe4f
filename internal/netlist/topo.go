package netlist

import "fmt"

// derive builds the design's derived structure — the combinational-fanout
// view, the topological order it carries and the per-instance levels —
// once per design revision, under a sync.Once so concurrent first callers
// share one build. Any structural edit discards it (see invalidate).
func (d *Design) derive() error {
	d.once.Do(func() {
		fo := buildFanout(d)
		order, err := d.topoSort(fo)
		if err != nil {
			d.deriveErr = err
			return
		}
		fo.order = order
		for p, id := range order {
			fo.pos[id] = int32(p)
		}
		d.fanout, d.levels = fo, d.levelize(fo)
	})
	return d.deriveErr
}

// TopoOrder returns the combinational instances of the design in a
// topological order: an instance appears after every combinational instance
// that drives one of its inputs. Flop outputs and primary inputs are
// sources. Flops themselves are included at the end of the order (their D /
// SI / SE inputs are consumed by the capture step, not by propagation).
// It returns an error if the combinational logic contains a cycle.
func (d *Design) TopoOrder() ([]InstID, error) {
	if err := d.derive(); err != nil {
		return nil, err
	}
	return d.fanout.order, nil
}

// topoSort orders the combinational instances by Kahn's algorithm over the
// fanout view, then appends the flops.
func (d *Design) topoSort(fo *Fanout) ([]InstID, error) {
	n := len(d.Insts)
	indeg := make([]int32, n)
	for i := range d.Insts {
		if d.Insts[i].IsFlop() {
			continue // flops break the cycle; handled after comb logic
		}
		for _, ld := range fo.Loads(fo.out[i]) {
			indeg[ld]++
		}
	}
	order := make([]InstID, 0, n)
	queue := make([]InstID, 0, n)
	for i := range d.Insts {
		if !d.Insts[i].IsFlop() && indeg[i] == 0 {
			queue = append(queue, InstID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, li := range fo.Loads(fo.out[id]) {
			indeg[li]--
			if indeg[li] == 0 {
				queue = append(queue, li)
			}
		}
	}
	if len(order) != d.NumGates() {
		return nil, fmt.Errorf("netlist: combinational cycle detected (%d of %d gates ordered)",
			len(order), d.NumGates())
	}
	return append(order, d.Flops...), nil
}

// Levels returns the per-instance logic level: sources (instances fed only
// by flop outputs or primary inputs) are level 1; every other combinational
// instance is one more than its deepest combinational fanin. Flops are
// level 0. The result is indexed by InstID.
func (d *Design) Levels() ([]int32, error) {
	if err := d.derive(); err != nil {
		return nil, err
	}
	return d.levels, nil
}

// levelize pushes levels forward along the fanout view in topological
// order: a combinational instance starts at 1 and ends one above its
// deepest combinational driver; flops stay at 0.
func (d *Design) levelize(fo *Fanout) []int32 {
	lv := make([]int32, len(d.Insts))
	comb := fo.order[:d.NumGates()]
	for _, id := range comb {
		lv[id] = 1
	}
	for _, id := range comb {
		next := lv[id] + 1
		for _, g := range fo.Loads(fo.out[id]) {
			if lv[g] < next {
				lv[g] = next
			}
		}
	}
	return lv
}

// MaxLevel returns the deepest combinational level in the design.
func (d *Design) MaxLevel() (int32, error) {
	lv, err := d.Levels()
	if err != nil {
		return 0, err
	}
	var max int32
	for _, l := range lv {
		if l > max {
			max = l
		}
	}
	return max, nil
}
