// Package core implements the paper's primary contribution: compiler-
// directed code restructuring that maximizes disk reuse (§5). Given the
// disk layout of the arrays and the exact iteration-level dependence graph,
// it reorders the union of all loop iterations so that accesses to each
// disk (I/O node) are clustered: all schedulable iterations touching disk 0
// run first, then disk 1, and so on, revisiting disks only when data
// dependences force it — the algorithm of Fig. 3, generalized from the
// paper's pseudo-code to arbitrary dependence structures.
package core

import (
	"context"
	"fmt"
	"slices"

	"diskreuse/internal/conc"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// Schedule is an execution order over the global iteration ids of a Space.
type Schedule struct {
	// Order lists global iteration ids in execution order.
	Order []int
	// Disk[k] is the primary disk of Order[k] (the disk whose cluster the
	// iteration was scheduled under).
	Disk []int
	// Space is the iteration space the schedule orders.
	Space *interp.Space
}

// Len returns the number of scheduled iterations.
func (s *Schedule) Len() int { return len(s.Order) }

// Restructurer prepares a program for disk-reuse scheduling: it enumerates
// the iteration space, builds the exact dependence graph, and attributes
// every iteration to its primary disk.
type Restructurer struct {
	Prog   *sema.Program
	Layout *layout.Layout
	Space  *interp.Space
	Graph  *interp.DepGraph

	// primary[id] is the iteration's primary disk: the disk holding the
	// element of its first (lexical) reference, per the paper's convention
	// that an iteration touching several disks is clustered by one of them.
	primary []int
	// touched[id] lists every distinct disk the iteration accesses.
	touched [][]int8
}

// Options configures how the front-end analyses run. The zero value is the
// serial configuration New has always used.
type Options struct {
	// Jobs bounds the worker pool of the analysis passes (iteration-space
	// enumeration, subscript validation, dependence build, disk
	// attribution). Zero selects runtime.GOMAXPROCS(0); 1 forces the fully
	// serial path; negative values are rejected — the same convention as
	// sim.Config.Jobs and exp.Options.Jobs. Every pass produces bit-
	// identical results at any Jobs value.
	Jobs int
	// Engine selects the front-end execution engine: the stride-compiled
	// kernels (interp.EngineCompiled, the zero value) or the tree-walk
	// reference oracle (interp.EngineInterp). Both produce bit-identical
	// Space, DepGraph, disk attribution, and schedules.
	Engine interp.Engine
	// Span, when non-nil, receives one child span per analysis pass
	// ("space", "validate", "deps", "attribute-disks"); on the compiled
	// engine the space pass has a "compile" child covering kernel lowering.
	Span *obs.Span
}

// New builds a Restructurer for prog with the given layout. The layout may
// be nil, in which case a fresh one with the default page size is built.
func New(prog *sema.Program, l *layout.Layout) (*Restructurer, error) {
	return NewCtx(context.Background(), prog, l, Options{})
}

// NewCtx is New with cancellation and a worker budget: the four analysis
// passes run on at most opt.Jobs workers and stop early if ctx is
// canceled. The resulting Restructurer is identical to New's at any Jobs.
func NewCtx(ctx context.Context, prog *sema.Program, l *layout.Layout, opt Options) (*Restructurer, error) {
	if opt.Jobs < 0 {
		return nil, fmt.Errorf("core: Jobs %d must be >= 0 (0 selects GOMAXPROCS, 1 forces the serial path)", opt.Jobs)
	}
	var err error
	if l == nil {
		l, err = layout.New(prog, 0)
		if err != nil {
			return nil, err
		}
	}
	jobs := opt.Jobs
	sp := opt.Span.Child("space")
	space, err := interp.BuildSpaceOpts(ctx, prog, interp.BuildOptions{
		Jobs:   jobs,
		Engine: opt.Engine,
		Span:   sp,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Span.Child("validate")
	err = space.ValidateCtx(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = opt.Span.Child("deps")
	graph, err := space.BuildDepsCtx(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	r := &Restructurer{
		Prog:   prog,
		Layout: l,
		Space:  space,
		Graph:  graph,
	}
	sp = opt.Span.Child("attribute-disks")
	err = r.attributeDisks(ctx, jobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// attributeDisks fills primary and touched for every iteration, chunked
// over the iteration range on at most jobs workers. Layout.ElemDisk is a
// pure function of the layout, so chunks share it safely; each chunk
// writes only its own slots, and errors are reported in iteration order
// (the first chunk's error wins) so the message never depends on worker
// scheduling. A chunk gathers its touched lists in one chunk-local backing
// and carves them once the chunk is done, one allocation per chunk rather
// than one per iteration.
func (r *Restructurer) attributeDisks(ctx context.Context, jobs int) error {
	n := r.Space.NumIterations()
	r.primary = make([]int, n)
	r.touched = make([][]int8, n)
	chunks := conc.Chunks(n, conc.ChunkCount(n, jobs, 1<<10))
	errs := make([]error, len(chunks))
	poolErr := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		lo, hi := chunks[k][0], chunks[k][1]
		str := r.Space.NewStreamer()
		var buf []interp.Access
		var backing []int8
		ends := make([]int32, hi-lo) // ends[id-lo]: end of id's list in backing
		for id := lo; id < hi; id++ {
			buf = str.Accesses(id, buf[:0])
			if len(buf) == 0 {
				errs[k] = fmt.Errorf("core: iteration %v performs no accesses", r.Space.IterAt(id))
				return errs[k]
			}
			mark := len(backing)
			for j, a := range buf {
				d, err := r.Layout.ElemDisk(a.Array, a.Lin)
				if err != nil {
					errs[k] = err
					return err
				}
				if j == 0 {
					r.primary[id] = d
				}
				if !slices.Contains(backing[mark:], int8(d)) {
					backing = append(backing, int8(d))
				}
			}
			ends[id-lo] = int32(len(backing))
		}
		start := int32(0)
		for id := lo; id < hi; id++ {
			end := ends[id-lo]
			r.touched[id] = backing[start:end:end]
			start = end
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return poolErr
}

// PrimaryDisk returns the primary disk of global iteration id.
func (r *Restructurer) PrimaryDisk(id int) int { return r.primary[id] }

// TouchedDisks returns every disk the iteration accesses.
func (r *Restructurer) TouchedDisks(id int) []int8 { return r.touched[id] }

// OriginalSchedule returns the untransformed program-order schedule, the
// baseline every experiment normalizes against.
func (r *Restructurer) OriginalSchedule() *Schedule {
	n := r.Space.NumIterations()
	s := &Schedule{
		Order: make([]int, n),
		Disk:  make([]int, n),
		Space: r.Space,
	}
	for i := 0; i < n; i++ {
		s.Order[i] = i
		s.Disk[i] = r.primary[i]
	}
	return s
}

// idHeap is a min-heap of iteration ids (original program order), the
// out-of-order half of readyQueue. It is a hand-rolled binary heap rather
// than a container/heap adapter: boxing each id into an interface value
// dominated scheduling time.
type idHeap []int

func (h *idHeap) push(id int) {
	q := append(*h, id)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *idHeap) pop() int {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && q[r] < q[l] {
			l = r
		}
		if q[i] <= q[l] {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	*h = q
	return top
}

// readyQueue is the per-disk ready queue: it pops ids smallest first, like
// a plain idHeap, but most pushes arrive in ascending order (the initial
// fill walks members in program order, and a released successor usually
// exceeds every queued id), so an id larger than every id in the FIFO run
// is appended to the run and only the rest go to the heap. Pop returns
// the smaller of the two heads; ids are unique, so the pop order — and
// hence the schedule — is exactly the heap's.
type readyQueue struct {
	run  []int // ascending; run[head:] is queued
	head int
	heap idHeap
}

func (q *readyQueue) len() int { return len(q.run) - q.head + len(q.heap) }

func (q *readyQueue) push(id int) {
	if n := len(q.run); n == q.head || id > q.run[n-1] {
		q.run = append(q.run, id)
		return
	}
	q.heap.push(id)
}

func (q *readyQueue) pop() int {
	if q.head < len(q.run) && (len(q.heap) == 0 || q.run[q.head] < q.heap[0]) {
		id := q.run[q.head]
		q.head++
		if q.head == len(q.run) {
			q.run, q.head = q.run[:0], 0
		}
		return id
	}
	return q.heap.pop()
}

// DiskReuseSchedule computes the restructured execution order of Fig. 3:
//
//	Q = all iterations; d = 0
//	while Q not empty:
//	    Q_d = all iterations in Q that access disk d and whose
//	          dependences are already satisfied (including transitively
//	          by earlier members of Q_d)
//	    schedule Q_d in original order; Q -= Q_d
//	    d = (d+1) mod D
//
// The implementation drains a per-disk ready queue: while processing disk
// d, iterations that become ready and belong to d are scheduled in the same
// visit, maximizing cluster length; iterations becoming ready for other
// disks wait for their disk's turn. With no dependences every disk is
// visited exactly once (perfect disk reuse); with dependences disks are
// revisited only as the while-loop of Fig. 3 requires.
func (r *Restructurer) DiskReuseSchedule() (*Schedule, error) {
	return r.ScheduleFor(nil)
}

// ScheduleFor runs disk-reuse scheduling over an explicit iteration subset
// (used by the multiprocessor path to restructure each processor's assigned
// iterations separately, §6.2). Dependence edges with both endpoints in the
// subset are enforced; edges entering the subset from outside are assumed
// satisfied (the caller is responsible for inter-subset ordering, e.g.
// barriers). nil means every iteration.
func (r *Restructurer) ScheduleFor(subset []int) (*Schedule, error) {
	return r.ScheduleSubsetWithPrimary(r.Layout.NumDisks(), r.primary, subset)
}

// subsetSpan validates subset (nil means all n iterations) and returns its
// members with a membership mask over the id span [base, base+len(mask))
// they occupy, so the scheduler's scratch is sized to the subset, not to
// the whole space. Errors name the first offending id in subset order, an
// out-of-range id or a duplicate, whichever comes first.
func subsetSpan(n int, subset []int) (members []int, mask []bool, base int, err error) {
	if subset == nil {
		members = make([]int, n)
		mask = make([]bool, n)
		for i := range members {
			members[i] = i
			mask[i] = true
		}
		return members, mask, 0, nil
	}
	// The span covers the ids before the first out-of-range one; marking
	// stops there, so a duplicate ahead of it is still reported first.
	valid := len(subset)
	lo, hi := n, -1
	for i, id := range subset {
		if id < 0 || id >= n {
			valid = i
			break
		}
		lo, hi = min(lo, id), max(hi, id)
	}
	if hi >= lo {
		mask = make([]bool, hi-lo+1)
	}
	for _, id := range subset[:valid] {
		if mask[id-lo] {
			return nil, nil, 0, fmt.Errorf("core: subset id %d duplicated", id)
		}
		mask[id-lo] = true
	}
	if valid < len(subset) {
		return nil, nil, 0, fmt.Errorf("core: subset id %d out of range", subset[valid])
	}
	return subset, mask, lo, nil
}

// scheduleFig3 is the algorithm of the paper's Fig. 3, generalized to an
// arbitrary dependence DAG: starting from disk 0, schedule every ready
// iteration whose primary disk is the current one (in original program
// order, admitting iterations that become ready during the same visit),
// then move to the next disk, cycling until all iterations are scheduled.
// mask[id-base] marks the member set; edges with an endpoint outside it —
// including any id outside the span, caught by one unsigned compare — are
// ignored.
func scheduleFig3(numDisks int, members []int, mask []bool, base int,
	primary []int, preds, succs [][]int32) (order, disks []int, err error) {

	span := uint(len(mask))
	indeg := make([]int32, len(mask))
	for _, id := range members {
		for _, p := range preds[id] {
			if j := int(p) - base; uint(j) < span && mask[j] {
				indeg[id-base]++
			}
		}
	}
	queues := make([]readyQueue, numDisks)
	pending := 0
	for _, id := range members {
		if indeg[id-base] == 0 {
			queues[primary[id]].push(id)
		}
		pending++
	}

	order = make([]int, 0, len(members))
	disks = make([]int, 0, len(members))
	d := 0
	idleRounds := 0
	for pending > 0 {
		if queues[d].len() == 0 {
			d = (d + 1) % numDisks
			idleRounds++
			if idleRounds > numDisks {
				// A full cycle with nothing ready means a dependence from
				// outside the set was never satisfied — a cycle cannot
				// exist because edges point forward in program order.
				return nil, nil, fmt.Errorf("core: scheduling stuck with %d iterations pending (cross-subset dependence?)", pending)
			}
			continue
		}
		idleRounds = 0
		for queues[d].len() > 0 {
			id := queues[d].pop()
			order = append(order, id)
			disks = append(disks, d)
			pending--
			for _, v := range succs[id] {
				j := int(v) - base
				if uint(j) >= span || !mask[j] {
					continue
				}
				indeg[j]--
				if indeg[j] == 0 {
					queues[primary[v]].push(int(v))
				}
			}
		}
		d = (d + 1) % numDisks
	}
	return order, disks, nil
}

// ScheduleWithPrimary runs the Fig. 3 scheduler over the whole iteration
// space under a caller-supplied primary-disk attribution and disk count,
// instead of the one the Restructurer computed from its own layout. The
// iteration space and dependence graph are layout-independent, so a layout
// search can build the Restructurer once and reschedule per candidate
// layout by re-deriving only the primary vector — exactly the schedule a
// fresh Restructurer over that layout would produce, without re-running
// the front end. primary must have one entry per iteration, each in
// [0, numDisks).
func (r *Restructurer) ScheduleWithPrimary(numDisks int, primary []int) (*Schedule, error) {
	return r.ScheduleSubsetWithPrimary(numDisks, primary, nil)
}

// ScheduleSubsetWithPrimary is ScheduleWithPrimary restricted to an
// iteration subset (nil means all): dependence edges inside the subset are
// enforced, edges entering from outside are assumed satisfied by the
// caller's inter-subset ordering (e.g. phase barriers). This is the
// per-phase leg of the phase-aware layout search.
func (r *Restructurer) ScheduleSubsetWithPrimary(numDisks int, primary []int, subset []int) (*Schedule, error) {
	n := r.Space.NumIterations()
	if numDisks <= 0 {
		return nil, fmt.Errorf("core: numDisks %d must be positive", numDisks)
	}
	if len(primary) != n {
		return nil, fmt.Errorf("core: primary vector has %d entries for %d iterations", len(primary), n)
	}
	members, mask, base, err := subsetSpan(n, subset)
	if err != nil {
		return nil, err
	}
	for _, id := range members {
		if d := primary[id]; d < 0 || d >= numDisks {
			return nil, fmt.Errorf("core: primary disk %d of iteration %d outside 0..%d", d, id, numDisks-1)
		}
	}
	order, disks, err := scheduleFig3(numDisks, members, mask, base,
		primary, r.Graph.Preds, r.Graph.Succs)
	if err != nil {
		return nil, err
	}
	return &Schedule{Order: order, Disk: disks, Space: r.Space}, nil
}

// Verify checks the schedule against the exact dependence graph.
func (r *Restructurer) Verify(s *Schedule) error {
	return r.Space.VerifySchedule(r.Graph, s.Order)
}
