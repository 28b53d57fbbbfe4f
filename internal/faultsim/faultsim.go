// Package faultsim implements parallel-pattern single-fault propagation
// (PPSFP) for transition delay faults under launch-off-capture: 64 pattern
// pairs are simulated at once through the good machine, and each fault's
// frame-2 stuck-at effect is propagated through a level-ordered cone with
// early exit. The per-fault cone propagation additionally fans out across
// the internal/parallel worker pool (see Workers), so a sweep grades
// workers × 64 packed patterns at once. It provides the fault dropping
// that keeps ATPG fast and the coverage accounting behind the paper's
// Figure 4 curves.
package faultsim

import (
	"fmt"
	"math/bits"

	"scap/internal/cell"
	"scap/internal/fault"
	"scap/internal/logic"
	"scap/internal/netlist"
	"scap/internal/obs"
	"scap/internal/parallel"
	"scap/internal/sim"
)

// Fault-simulation observability: batches simulated, cone work per
// detection, early-exit share and drop yield, all wired into the -report
// run report. Cone gate counts accumulate in a per-call local and flush
// once per Detect, so the inner propagation loop never touches an atomic.
var (
	cBatches   = obs.NewCounter("faultsim.batches")
	cDetects   = obs.NewCounter("faultsim.detects")
	cNoAct     = obs.NewCounter("faultsim.no_activation")
	cEarlyExit = obs.NewCounter("faultsim.early_exits")
	cConeGates = obs.NewCounter("faultsim.cone_gate_evals")
	cDropped   = obs.NewCounter("faultsim.faults_dropped")
	hConeGates = obs.NewHistogram("faultsim.cone_gates_per_detect")
)

func init() {
	obs.RegisterDerived("faultsim.early_exit_share", func(c map[string]int64) (float64, bool) {
		det := c["faultsim.detects"] - c["faultsim.no_activation"]
		if det <= 0 {
			return 0, false
		}
		return float64(c["faultsim.early_exits"]) / float64(det), true
	})
}

// Sim is a reusable transition-fault simulator for one design.
//
// Concurrency: the good-machine methods (GoodSim, GoodSimShift,
// Activation) touch no Sim scratch and are safe to call concurrently.
// The cone-propagation methods (Detect, FailMasks, FailSlots) own mutable
// scratch and must not run concurrently on one Sim — Clone produces
// additional Sims sharing the immutable design/level/observability tables
// for exactly that. Drop, DetectionCounts and DetectAll shard themselves
// across Workers cloned Sims and are bit-identical for any worker count.
type Sim struct {
	s      *sim.Simulator
	d      *netlist.Design
	fo     *netlist.Fanout
	levels []int32

	// Workers fans DetectAll (and through it Drop and DetectionCounts)
	// across the worker pool: 0 means all cores, 1 forces the exact
	// serial path. Results are identical for any value.
	Workers int

	// Observation points per clock domain: the D nets of that domain's
	// flops (launch-off-capture observes captured flops only; primary
	// outputs are not measured, per the paper).
	obsNets [][]netlist.NetID
	// isObs[dom][net] marks observation nets for O(1) lookup.
	isObs [][]bool
	// obsOwners[dom][net] lists the flop indexes (design flop order) whose
	// D input is that net — the flops a tester sees failing.
	obsOwners []map[netlist.NetID][]int

	// scratch state for cone propagation (reset after each fault):
	fv      []logic.Word // faulty frame-2 net values where touched
	touched []bool
	tlist   []netlist.NetID
	queued  []bool
	buckets [][]netlist.InstID // gates to evaluate, bucketed by level

	// failure-signature scratch for FailSlots (lazily sized): sig is
	// indexed by flop and zeroed again before FailSlots returns.
	sig      []uint64
	sigFlops []int
	sigMasks []uint64

	// worker machinery, owned by the Sim DetectAll is called on:
	clones  []*Sim // lazily grown clone pool (clones[w] serves worker w+1)
	simsBuf []*Sim // reusable pool slice handed to parallel.For bodies
	detBuf  []uint64
}

// New builds a fault simulator on top of a zero-delay simulator.
func New(s *sim.Simulator) (*Sim, error) {
	d := s.Design()
	lv, err := d.Levels()
	if err != nil {
		return nil, fmt.Errorf("faultsim: %w", err)
	}
	fo, err := d.Fanout()
	if err != nil {
		return nil, fmt.Errorf("faultsim: %w", err)
	}
	ml := int32(0)
	for _, l := range lv {
		if l > ml {
			ml = l
		}
	}
	fs := &Sim{
		s: s, d: d, fo: fo, levels: lv,
		fv:      make([]logic.Word, d.NumNets()),
		touched: make([]bool, d.NumNets()),
		queued:  make([]bool, d.NumInsts()),
		buckets: make([][]netlist.InstID, ml+2),
	}
	fs.obsNets = make([][]netlist.NetID, len(d.Domains))
	fs.isObs = make([][]bool, len(d.Domains))
	fs.obsOwners = make([]map[netlist.NetID][]int, len(d.Domains))
	for dom := range d.Domains {
		fs.isObs[dom] = make([]bool, d.NumNets())
		fs.obsOwners[dom] = map[netlist.NetID][]int{}
	}
	for fi, f := range d.Flops {
		inst := d.Inst(f)
		dn := inst.In[0]
		fs.obsNets[inst.Domain] = append(fs.obsNets[inst.Domain], dn)
		fs.isObs[inst.Domain][dn] = true
		fs.obsOwners[inst.Domain][dn] = append(fs.obsOwners[inst.Domain][dn], fi)
	}
	return fs, nil
}

// Clone returns a Sim with private cone scratch that shares every
// immutable table (design, levels, observability) with fs — the
// per-worker constructor of the parallel fault-dropping pipeline. It is
// O(nets) for the scratch vectors and performs no per-flop analysis.
func (fs *Sim) Clone() *Sim {
	return &Sim{
		s: fs.s, d: fs.d, fo: fs.fo, levels: fs.levels,
		obsNets: fs.obsNets, isObs: fs.isObs, obsOwners: fs.obsOwners,
		fv:      make([]logic.Word, fs.d.NumNets()),
		touched: make([]bool, fs.d.NumNets()),
		queued:  make([]bool, fs.d.NumInsts()),
		buckets: make([][]netlist.InstID, len(fs.buckets)),
	}
}

// pool returns n Sims usable by workers 0..n-1: fs itself plus lazily
// built clones, cached across calls so steady-state sweeps allocate
// nothing.
func (fs *Sim) pool(n int) []*Sim {
	for len(fs.clones) < n-1 {
		fs.clones = append(fs.clones, fs.Clone())
	}
	if cap(fs.simsBuf) < n {
		fs.simsBuf = make([]*Sim, n)
	}
	sims := fs.simsBuf[:n]
	sims[0] = fs
	copy(sims[1:], fs.clones[:n-1])
	return sims
}

// dets returns the reusable DetectAll result buffer sized to n.
func (fs *Sim) dets(n int) []uint64 {
	if cap(fs.detBuf) < n {
		fs.detBuf = make([]uint64, n)
	}
	return fs.detBuf[:n]
}

// FailMasks returns, for fault f under the batch, the per-flop failure
// signature: flop index (design flop order) -> slot mask where the flop
// captures a faulty value. Unlike Detect it propagates the whole cone (no
// early exit) so the signature is complete — the prediction a tester's
// failing-cycle log is matched against during diagnosis. Hot loops should
// prefer FailSlots, which reuses buffers instead of building a map.
func (fs *Sim) FailMasks(b *Batch, f *fault.Fault) map[int]uint64 {
	flops, masks := fs.FailSlots(b, f)
	if len(flops) == 0 {
		return nil
	}
	out := make(map[int]uint64, len(flops))
	for i, fi := range flops {
		out[fi] = masks[i]
	}
	return out
}

// FailSlots is the allocation-free form of FailMasks: it returns parallel
// slices (failing flop indexes in first-reached order, and the slot mask
// per flop) owned by the Sim and valid until the next FailSlots or
// FailMasks call on this Sim.
func (fs *Sim) FailSlots(b *Batch, f *fault.Fault) ([]int, []uint64) {
	fs.sigFlops = fs.sigFlops[:0]
	fs.sigMasks = fs.sigMasks[:0]
	act := fs.Activation(b, f)
	if act == 0 {
		return fs.sigFlops, fs.sigMasks
	}
	if fs.sig == nil {
		fs.sig = make([]uint64, len(fs.d.Flops))
	}
	d := fs.d
	stuck := logic.Splat(logic.Zero)
	if f.Type == fault.STF {
		stuck = logic.Splat(logic.One)
	}
	// Act-masked injection, as in Detect: the recorded signature is
	// act-masked anyway, and the tighter divergence cone is what keeps
	// per-fault signatures cheap on 64-slot batches.
	inj := logic.Select(act, b.N2[f.Net], stuck)
	record := func(n netlist.NetID, faulty logic.Word) {
		if !fs.isObs[b.Dom][n] {
			return
		}
		if m := b.N2[n].Diff(faulty) & act; m != 0 {
			for _, fi := range fs.obsOwners[b.Dom][n] {
				if fs.sig[fi] == 0 {
					fs.sigFlops = append(fs.sigFlops, fi)
				}
				fs.sig[fi] |= m
			}
		}
	}

	fs.setFaulty(f.Net, inj)
	record(f.Net, inj)
	fs.scheduleLoads(f.Net)
	for lv := 1; lv < len(fs.buckets); lv++ {
		bucket := fs.buckets[lv]
		if len(bucket) == 0 {
			continue
		}
		fs.buckets[lv] = bucket[:0]
		for _, g := range bucket {
			fs.queued[g] = false
			inst := &d.Insts[g]
			var in [4]logic.Word
			for p, n := range inst.In {
				if fs.touched[n] {
					in[p] = fs.fv[n]
				} else {
					in[p] = b.N2[n]
				}
			}
			o := cell.EvalWord(inst.Kind, in[:len(inst.In)])
			cur := b.N2[inst.Out]
			if fs.touched[inst.Out] {
				cur = fs.fv[inst.Out]
			}
			if o == cur {
				continue
			}
			fs.setFaulty(inst.Out, o)
			record(inst.Out, o)
			fs.scheduleLoads(inst.Out)
		}
	}
	for _, n := range fs.tlist {
		fs.touched[n] = false
	}
	fs.tlist = fs.tlist[:0]
	for lv := range fs.buckets {
		for _, g := range fs.buckets[lv] {
			fs.queued[g] = false
		}
		fs.buckets[lv] = fs.buckets[lv][:0]
	}
	// Drain the dense signature back to zero while building the compact
	// mask list, leaving sig clean for the next fault.
	for _, fi := range fs.sigFlops {
		fs.sigMasks = append(fs.sigMasks, fs.sig[fi])
		fs.sig[fi] = 0
	}
	return fs.sigFlops, fs.sigMasks
}

// Batch holds the good-machine simulation of up to 64 launch-off-capture
// pattern pairs targeting one clock domain.
type Batch struct {
	Dom int
	// N1 and N2 are the per-net frame-1 (initialization) and frame-2
	// (launch/capture) good values.
	N1, N2 []logic.Word
	// V1 and V2 are the per-flop states before and at launch.
	V1, V2 []logic.Word
	// Captured is the per-flop frame-2 captured state (only meaningful for
	// flops of Dom; others hold).
	Captured []logic.Word
	// Valid masks the slots that carry real patterns.
	Valid uint64

	pis []logic.Word
}

// GoodSim simulates the good machine for a batch of launch-off-capture
// pattern pairs: v1 is the per-flop scan-in state, pis the constant
// primary-input values. Only flops of domain dom launch and capture; all
// others hold their v1 value. GoodSim touches no Sim scratch and is safe
// to call concurrently.
func (fs *Sim) GoodSim(v1, pis []logic.Word, dom int, valid uint64) *Batch {
	defer obs.TraceStart().End("faultsim", "good-sim")
	b, cap1 := fs.frame1(v1, pis, dom, valid)
	d := fs.d
	v2 := make([]logic.Word, len(d.Flops))
	for i, f := range d.Flops {
		if d.Inst(f).Domain == dom {
			v2[i] = cap1[i]
		} else {
			v2[i] = v1[i]
		}
	}
	fs.frame2(b, v2)
	return b
}

// GoodSimShift simulates the good machine for launch-off-shift patterns:
// the launch state of each domain flop is the frame-1 value of its shift
// source net (previous chain cell or scan-in pin); flops absent from src
// hold.
func (fs *Sim) GoodSimShift(v1, pis []logic.Word, dom int, valid uint64,
	src map[netlist.InstID]netlist.NetID) *Batch {

	b, _ := fs.frame1(v1, pis, dom, valid)
	d := fs.d
	v2 := make([]logic.Word, len(d.Flops))
	for i, f := range d.Flops {
		if n, ok := src[f]; ok && d.Inst(f).Domain == dom {
			v2[i] = b.N1[n]
		} else {
			v2[i] = v1[i]
		}
	}
	fs.frame2(b, v2)
	return b
}

// frame1 settles the initialization frame and returns the batch shell plus
// the frame-1 captured state.
func (fs *Sim) frame1(v1, pis []logic.Word, dom int, valid uint64) (*Batch, []logic.Word) {
	cBatches.Add(1)
	s, d := fs.s, fs.d
	b := &Batch{Dom: dom, Valid: valid, V1: v1}
	if pis == nil {
		pis = make([]logic.Word, len(d.PIs)) // all-X primary inputs
	}
	b.pis = pis
	n1 := s.NewNetsW()
	s.SetPIsW(n1, pis)
	s.ApplyStateW(n1, v1)
	s.PropagateW(n1)
	b.N1 = n1
	return b, s.CaptureStateW(n1)
}

// frame2 settles the launch/capture frame for the given launch state.
func (fs *Sim) frame2(b *Batch, v2 []logic.Word) {
	s := fs.s
	n2 := s.NewNetsW()
	s.SetPIsW(n2, b.pis)
	s.ApplyStateW(n2, v2)
	s.PropagateW(n2)
	b.N2 = n2
	b.V2 = v2
	b.Captured = s.CaptureStateW(n2)
}

// Activation returns the slot mask where fault f's launch transition occurs
// (frame-1 value then frame-2 value at the site, e.g. 0→1 for slow-to-rise).
func (fs *Sim) Activation(b *Batch, f *fault.Fault) uint64 {
	n1, n2 := b.N1[f.Net], b.N2[f.Net]
	if f.Type == fault.STR {
		return n1.Zero & n2.One & b.Valid
	}
	return n1.One & n2.Zero & b.Valid
}

// Detect returns the slot mask where fault f is detected by the batch:
// the launch transition occurs and the frame-2 stuck-at effect reaches a
// captured flop of the batch's domain.
func (fs *Sim) Detect(b *Batch, f *fault.Fault) uint64 {
	cDetects.Add(1)
	act := fs.Activation(b, f)
	if act == 0 {
		cNoAct.Add(1)
		return 0
	}
	d := fs.d

	// Inject the stuck value at the site in frame 2 and propagate the
	// difference through the level-ordered cone. The injection is masked
	// to the activated slots: a transition fault only misbehaves where the
	// transition was launched, and detection is act-masked anyway, so the
	// non-activated slots keep their good value — which keeps the
	// divergence cone (and the word-level propagation frontier) tight on
	// wide packed batches where most slots activate only a few faults.
	stuck := logic.Splat(logic.Zero) // slow-to-rise behaves stuck-at-0 in frame 2
	if f.Type == fault.STF {
		stuck = logic.Splat(logic.One)
	}
	faulty := logic.Select(act, b.N2[f.Net], stuck)

	var detect uint64
	evals := 0
	fs.setFaulty(f.Net, faulty)
	if fs.isObs[b.Dom][f.Net] {
		detect |= b.N2[f.Net].Diff(faulty) & act
	}
	fs.scheduleLoads(f.Net)

	for lv := 1; lv < len(fs.buckets) && detect != act; lv++ {
		bucket := fs.buckets[lv]
		if len(bucket) == 0 {
			continue
		}
		fs.buckets[lv] = bucket[:0]
		for _, g := range bucket {
			fs.queued[g] = false
			if detect == act {
				continue
			}
			inst := &d.Insts[g]
			var in [4]logic.Word
			for p, n := range inst.In {
				if fs.touched[n] {
					in[p] = fs.fv[n]
				} else {
					in[p] = b.N2[n]
				}
			}
			evals++
			out := cell.EvalWord(inst.Kind, in[:len(inst.In)])
			cur := b.N2[inst.Out]
			if fs.touched[inst.Out] {
				cur = fs.fv[inst.Out]
			}
			if out == cur {
				continue
			}
			fs.setFaulty(inst.Out, out)
			if fs.isObs[b.Dom][inst.Out] {
				detect |= b.N2[inst.Out].Diff(out) & act
			}
			fs.scheduleLoads(inst.Out)
		}
	}
	if detect == act {
		cEarlyExit.Add(1)
	}

	// Reset scratch state.
	for _, n := range fs.tlist {
		fs.touched[n] = false
	}
	fs.tlist = fs.tlist[:0]
	for lv := range fs.buckets {
		for _, g := range fs.buckets[lv] {
			fs.queued[g] = false
		}
		fs.buckets[lv] = fs.buckets[lv][:0]
	}
	cConeGates.Add(int64(evals))
	hConeGates.Observe(float64(evals))
	return detect
}

func (fs *Sim) setFaulty(n netlist.NetID, v logic.Word) {
	if !fs.touched[n] {
		fs.touched[n] = true
		fs.tlist = append(fs.tlist, n)
	}
	fs.fv[n] = v
}

func (fs *Sim) scheduleLoads(n netlist.NetID) {
	for _, g := range fs.fo.Loads(n) {
		if fs.queued[g] {
			continue
		}
		fs.queued[g] = true
		lv := fs.levels[g]
		fs.buckets[lv] = append(fs.buckets[lv], g)
	}
}

// DetectAll computes the detection mask of every fault in subset against
// the batch, writing dets[i] for subset[i] (len(dets) must equal
// len(subset)). With undetectedOnly, faults whose status is not
// Undetected are skipped and report a zero mask. The per-fault cone
// propagations are independent, so the loop fans out across
// Resolve(fs.Workers) cloned Sims; every task writes only its own
// index-addressed slot, making the result bit-identical for any worker
// count and any subset order. The fault list is read-only here — callers
// merge dets into statuses afterwards (Drop, CompactReverse).
func (fs *Sim) DetectAll(l *fault.List, subset []int, b *Batch, dets []uint64, undetectedOnly bool) {
	n := len(subset)
	if n == 0 {
		return
	}
	workers := parallel.Resolve(fs.Workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, fi := range subset {
			if undetectedOnly && l.Status[fi] != fault.Undetected {
				dets[i] = 0
				continue
			}
			dets[i] = fs.Detect(b, &l.Faults[fi])
		}
		return
	}
	sims := fs.pool(workers)
	// The body never fails; parallel.For's error plumbing is unused.
	_ = parallel.For(workers, n, func(w, i int) error {
		fi := subset[i]
		if undetectedOnly && l.Status[fi] != fault.Undetected {
			dets[i] = 0
			return nil
		}
		dets[i] = sims[w].Detect(b, &l.Faults[fi])
		return nil
	})
}

// Drop runs detection for every not-yet-detected fault in subset against
// the batch and marks newly detected faults with the index of the earliest
// detecting pattern (base + slot). It returns the number of faults
// dropped. The detection sweep fans out across fs.Workers (the merge is
// serial in subset order), so the marks are bit-identical to the serial
// path for any worker count.
func (fs *Sim) Drop(l *fault.List, subset []int, b *Batch, base int) int {
	dets := fs.dets(len(subset))
	fs.DetectAll(l, subset, b, dets, true)
	dropped := 0
	for i, fi := range subset {
		det := dets[i]
		if det == 0 || l.Status[fi] != fault.Undetected {
			continue
		}
		l.MarkDetected(fi, base+bits.TrailingZeros64(det))
		dropped++
	}
	cDropped.Add(int64(dropped))
	return dropped
}

// DetectionCounts adds, for every fault in subset, the number of batch
// patterns that detect it into counts (indexed like the fault list). It
// backs n-detect metrics: industrial flows often require every fault be
// detected n times to improve small-delay-defect screening. Like Drop,
// the sweep is worker-parallel and deterministic.
func (fs *Sim) DetectionCounts(l *fault.List, subset []int, b *Batch, counts []int) {
	dets := fs.dets(len(subset))
	fs.DetectAll(l, subset, b, dets, false)
	for i, fi := range subset {
		if dets[i] != 0 {
			counts[fi] += bits.OnesCount64(dets[i])
		}
	}
}
