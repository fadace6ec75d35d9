// Package par implements the multiprocessor code-structuring of §6 of the
// paper: the conventional loop-based parallelization baseline (§6.1) and
// the disk-layout-aware, data-space-oriented parallelization (§6.2) that
// assigns to each processor the loop iterations touching "its" array
// region across ALL nests, so each processor keeps exercising the same
// small set of disks.
//
// Execution model. Processors synchronize with a barrier between nests and
// run a nest's assigned iterations concurrently. Parallelization is
// therefore restricted to communication-free loops — an outermost loop
// level k such that every dependence distance has d[k] == 0 — which keeps
// every intra-nest dependence on a single processor. Nests with no such
// level run sequentially on processor 0 (the conservative reading of
// "parallelize the outermost loop as much as possible"). The strict check
// is enforced by Assignment.CheckIntraNest.
package par

import (
	"fmt"

	"diskreuse/internal/core"
	"diskreuse/internal/dep"
	"diskreuse/internal/sema"
)

// Assignment maps every global iteration to a processor.
type Assignment struct {
	Procs int
	// Owner[id] is the processor executing global iteration id.
	Owner []int
	// ParallelLevel[k] is the loop level of nest k that was partitioned,
	// or -1 when the nest runs sequentially on processor 0.
	ParallelLevel []int
}

// Subsets returns, per processor, its iteration ids in program order. The
// lists are carved from one backing sized by Loads; a processor with no
// iterations gets a nil list.
func (a *Assignment) Subsets() [][]int {
	out := make([][]int, a.Procs)
	backing := make([]int, len(a.Owner))
	off := 0
	for p, l := range a.Loads() {
		if l > 0 {
			out[p] = backing[off : off : off+l] // filled in place by the appends below
			off += l
		}
	}
	for id, p := range a.Owner {
		out[p] = append(out[p], id)
	}
	return out
}

// Loads returns the number of iterations per processor.
func (a *Assignment) Loads() []int {
	loads := make([]int, a.Procs)
	for _, p := range a.Owner {
		loads[p]++
	}
	return loads
}

// Imbalance returns max load over mean load (1.0 = perfectly balanced).
func (a *Assignment) Imbalance() float64 {
	loads := a.Loads()
	max, sum := 0, 0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(a.Procs) / float64(sum)
}

// CheckIntraNest verifies that no dependence edge inside a single nest
// crosses processors — the legality condition of the barrier-between-nests
// execution model.
func (a *Assignment) CheckIntraNest(r *core.Restructurer) error {
	space := r.Space
	for u := range r.Graph.Preds {
		for _, p := range r.Graph.Preds[u] {
			if space.Nest(u) == space.Nest(int(p)) && a.Owner[u] != a.Owner[int(p)] {
				return fmt.Errorf("par: intra-nest dependence %v -> %v crosses processors %d -> %d",
					space.IterAt(int(p)), space.IterAt(u), a.Owner[p], a.Owner[u])
			}
		}
	}
	return nil
}

// commFreeLevel returns the outermost loop level of nest n whose
// partitioning severs no dependence: every dependence provably has
// distance zero at that level (exact zero entries, or known-zero entries
// of an underdetermined solution family such as an accumulation's (0, t)
// distances). ok is false when no such level exists.
func commFreeLevel(n *sema.Nest) (int, bool) {
	deps := dep.AnalyzeNest(n)
	for k := 0; k < n.Depth(); k++ {
		ok := true
		for _, d := range deps {
			if !d.KnownZeroAt(k) {
				ok = false
				break
			}
		}
		if ok {
			return k, true
		}
	}
	return 0, false
}

// blockOwner maps value v in [lo, hi] to one of procs contiguous blocks.
func blockOwner(v, lo, hi int64, procs int) int {
	span := hi - lo + 1
	if span <= 0 {
		return 0
	}
	chunk := (span + int64(procs) - 1) / int64(procs)
	p := int((v - lo) / chunk)
	if p < 0 {
		p = 0
	}
	if p >= procs {
		p = procs - 1
	}
	return p
}

// LoopParallelize implements the §6.1 baseline: each nest independently
// gets its outermost communication-free loop block-partitioned over the
// processors. As the paper's Fig. 6(a) illustrates, corresponding blocks
// of different nests land on the same processor even when they touch
// entirely different array regions.
func LoopParallelize(r *core.Restructurer, procs int) (*Assignment, error) {
	if procs < 1 {
		return nil, fmt.Errorf("par: need at least one processor, got %d", procs)
	}
	a := &Assignment{
		Procs:         procs,
		Owner:         make([]int, r.Space.NumIterations()),
		ParallelLevel: make([]int, len(r.Prog.Nests)),
	}
	levels := make([]int, len(r.Prog.Nests))
	ranges := make([]dep.Interval, len(r.Prog.Nests))
	for k, n := range r.Prog.Nests {
		lvl, ok := commFreeLevel(n)
		if !ok || procs == 1 {
			levels[k] = -1
			a.ParallelLevel[k] = -1
			continue
		}
		levels[k] = lvl
		a.ParallelLevel[k] = lvl
		ivs, err := dep.IterIntervals(n)
		if err != nil {
			return nil, err
		}
		ranges[k] = ivs[n.Loops[lvl].Var]
	}
	for id := 0; id < r.Space.NumIterations(); id++ {
		it := r.Space.IterAt(id)
		lvl := levels[it.Nest]
		if lvl < 0 {
			a.Owner[id] = 0
			continue
		}
		rg := ranges[it.Nest]
		a.Owner[id] = blockOwner(it.Iter[lvl], rg.Lo, rg.Hi, procs)
	}
	return a, nil
}

// arrayVote is the per-array "unification step" of §6.2.2: each nest casts
// a vote for the array dimension its parallel iterator drives (row-block =
// dimension 0, column-block = dimension 1, ...), and the most frequently
// requested distribution wins.
func arrayVote(r *core.Restructurer, levels []int) map[*sema.Array]int {
	votes := map[*sema.Array]map[int]int{}
	for k, n := range r.Prog.Nests {
		lvl := levels[k]
		if lvl < 0 {
			continue
		}
		parVar := n.Loops[lvl].Var
		for _, st := range n.Stmts {
			for _, ref := range st.Refs() {
				for dim, sub := range ref.Subs {
					if sub.Coeff(parVar) != 0 {
						if votes[ref.Array] == nil {
							votes[ref.Array] = map[int]int{}
						}
						votes[ref.Array][dim]++
						break // vote once per reference
					}
				}
			}
		}
	}
	out := map[*sema.Array]int{}
	for arr, vs := range votes {
		best, bestCount := 0, -1
		for dim := 0; dim < len(arr.Dims); dim++ {
			if c := vs[dim]; c > bestCount {
				best, bestCount = dim, c
			}
		}
		out[arr] = best
	}
	return out
}

// LayoutAware implements the §6.2 disk-layout-aware parallelization. Its
// objective, per §6.2.1, is to "partition the disks in the storage system
// across the processors by localizing accesses to each disk to a single
// processor as much as possible": every iteration is assigned to the
// processor that owns the disk its primary reference touches, so the
// iterations of every nest that access the same disk-resident region run
// on the same processor (the Fig. 6(b) assignment), regardless of where
// they sit in their own iteration spaces. Nests where this split would
// sever an intra-nest dependence fall back to their §6.1 owners,
// preserving legality ("the maximum possible disk reuse allowed by data
// dependences").
func LayoutAware(r *core.Restructurer, procs int) (*Assignment, error) {
	base, err := LoopParallelize(r, procs)
	if err != nil {
		return nil, err
	}
	if procs == 1 {
		return base, nil
	}
	numDisks := r.Layout.NumDisks()
	a := &Assignment{
		Procs:         procs,
		Owner:         make([]int, r.Space.NumIterations()),
		ParallelLevel: append([]int(nil), base.ParallelLevel...),
	}
	for id := range a.Owner {
		// Contiguous disk blocks per processor: processor p owns disks
		// [p·D/P, (p+1)·D/P).
		a.Owner[id] = r.PrimaryDisk(id) * procs / numDisks
		if a.Owner[id] >= procs {
			a.Owner[id] = procs - 1
		}
	}
	if err := a.repairIllegalNests(r, base); err != nil {
		return nil, err
	}
	return a, nil
}

// DataSpacePartition is the §6.2.2 unification-vote partitioner, kept as
// an alternative strategy (and ablation baseline) to LayoutAware's direct
// disk-affinity assignment. Every array gets a unified block distribution
// along its voted dimension (Z_{s,j} derived by the majority vote over the
// distributions the nests demand), and each iteration goes to the
// processor owning the region its primary reference touches. Iterations
// with no ownership signal keep their §6.1 owner.
func DataSpacePartition(r *core.Restructurer, procs int) (*Assignment, error) {
	base, err := LoopParallelize(r, procs)
	if err != nil {
		return nil, err
	}
	if procs == 1 {
		return base, nil
	}
	votes := arrayVote(r, base.ParallelLevel)
	a := &Assignment{
		Procs:         procs,
		Owner:         make([]int, r.Space.NumIterations()),
		ParallelLevel: append([]int(nil), base.ParallelLevel...),
	}
	copy(a.Owner, base.Owner)

	// Precompute per nest: the primary reference, and whether ownership by
	// data region is usable (the nest is parallelizable and the primary
	// ref's voted-dimension subscript varies with some iterator).
	type nestPlan struct {
		usable bool
		ref    *sema.Ref
		dim    int
		block  int64
	}
	plans := make([]nestPlan, len(r.Prog.Nests))
	for k, n := range r.Prog.Nests {
		if base.ParallelLevel[k] < 0 {
			continue
		}
		ref := primaryRefOf(n)
		dim, ok := votes[ref.Array]
		if !ok {
			continue
		}
		sub := ref.Subs[dim]
		if sub.IsConst() {
			continue
		}
		extent := ref.Array.Dims[dim]
		plans[k] = nestPlan{
			usable: true,
			ref:    ref,
			dim:    dim,
			block:  (extent + int64(procs) - 1) / int64(procs),
		}
	}

	for id := 0; id < r.Space.NumIterations(); id++ {
		it := r.Space.IterAt(id)
		plan := plans[it.Nest]
		if !plan.usable {
			continue
		}
		n := r.Prog.Nests[it.Nest]
		env := n.Env(it.Iter)
		v := plan.ref.Subs[plan.dim].MustEval(env)
		p := int(v / plan.block)
		if p < 0 {
			p = 0
		}
		if p >= procs {
			p = procs - 1
		}
		a.Owner[id] = p
	}

	// Legality: the data-space assignment must not split an intra-nest
	// dependence across processors. If it does for some nest, fall back to
	// the §6.1 owners for that nest (the paper's "maximum possible disk
	// reuse allowed by data dependences").
	if err := a.repairIllegalNests(r, base); err != nil {
		return nil, err
	}
	return a, nil
}

// repairIllegalNests reverts nests whose data-space assignment breaks an
// intra-nest dependence back to their loop-parallelized owners.
func (a *Assignment) repairIllegalNests(r *core.Restructurer, base *Assignment) error {
	space := r.Space
	bad := map[int]bool{}
	for u := range r.Graph.Preds {
		for _, p := range r.Graph.Preds[u] {
			if nu := space.Nest(u); nu == space.Nest(int(p)) && a.Owner[u] != a.Owner[int(p)] {
				bad[nu] = true
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	for id := 0; id < space.NumIterations(); id++ {
		if bad[space.Nest(id)] {
			a.Owner[id] = base.Owner[id]
		}
	}
	// The base assignment is legal by construction; re-check to be safe.
	return a.CheckIntraNest(r)
}

func primaryRefOf(n *sema.Nest) *sema.Ref {
	st := n.Stmts[0]
	if len(st.Reads) > 0 {
		return st.Reads[0]
	}
	return st.Write
}
