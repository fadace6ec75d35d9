// Package interp executes validated DRL programs abstractly: it enumerates
// iteration instances across all nests, resolves each iteration's array
// accesses to linear element indices, and builds the exact element-wise
// dependence graph that the disk-reuse scheduler must respect.
//
// The paper's Fig. 3 algorithm needs to know, for every loop iteration,
// (a) which disk(s) it touches and (b) which earlier iterations it depends
// on. Static distance vectors (package dep) answer (b) only within one
// nest and only for uniformly generated references; the interpreter
// computes the exact graph across all nests by replaying accesses in
// program order and recording flow (read-after-write), anti
// (write-after-read), and output (write-after-write) edges at element
// granularity.
package interp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"diskreuse/internal/affine"
	"diskreuse/internal/conc"
	"diskreuse/internal/obs"
	"diskreuse/internal/sema"
)

// Iteration identifies one execution of a nest body.
type Iteration struct {
	Nest int           // index into Program.Nests
	Iter affine.Vector // iteration vector
}

func (it Iteration) String() string {
	return fmt.Sprintf("N%d%s", it.Nest, it.Iter)
}

// Access is one element touch performed by an iteration.
type Access struct {
	Array *sema.Array
	Lin   int64 // row-major linear element index
	Write bool
	Stmt  int // statement index within the nest body
}

// compiledRef is an array reference lowered to a linear function of the
// iteration vector: Lin(iv) = c0 + Σ coef[l]*iv[l].
type compiledRef struct {
	arr   *sema.Array
	coef  []int64
	c0    int64
	write bool
	stmt  int
	// raw subscripts kept for bounds validation
	subs []affine.Expr
}

// Space is the enumerated iteration space of a whole program: every
// iteration of every nest, in original program order, with compiled access
// functions.
//
// Iteration vectors live in one flat arena per nest — depths[k] int64
// coordinates per iteration, row-major in global id order — rather than a
// materialized []Iteration: the arena holds no pointers, so enumeration is
// a straight sequential fill and the collector never scans it. Iterations
// are viewed through Nest, IterVec, and IterAt.
type Space struct {
	Prog *sema.Program
	// NestFirst[k] is the global id of nest k's first iteration.
	NestFirst []int

	arena  [][]int64 // per nest: flat iteration vectors
	depths []int     // per nest: loop depth (arena row width)
	total  int

	refs    [][]compiledRef // per nest, write-first per statement
	engine  Engine
	kernels []*kernel // per nest; nil on the interp engine
}

// Nest returns the nest index of global iteration id.
func (s *Space) Nest(id int) int {
	// Nests are few; a backward scan beats a binary search and among
	// equal NestFirst entries (empty nests) lands on the owning nest.
	k := len(s.NestFirst) - 1
	for k > 0 && s.NestFirst[k] > id {
		k--
	}
	return k
}

// IterVec returns iteration id's vector: a view into the space's arena,
// valid for the space's lifetime. Callers must not mutate it.
func (s *Space) IterVec(id int) affine.Vector {
	return s.iterVecIn(s.Nest(id), id)
}

func (s *Space) iterVecIn(k, id int) affine.Vector {
	d := s.depths[k]
	off := (id - s.NestFirst[k]) * d
	return affine.Vector(s.arena[k][off : off+d : off+d])
}

// IterAt returns the Iteration view of global id.
func (s *Space) IterAt(id int) Iteration {
	k := s.Nest(id)
	return Iteration{Nest: k, Iter: s.iterVecIn(k, id)}
}

// BuildSpace enumerates prog's iterations and compiles its references on
// the calling goroutine — the serial path of BuildSpaceOpts with the
// default (compiled) engine.
func BuildSpace(prog *sema.Program) (*Space, error) {
	return BuildSpaceOpts(context.Background(), prog, BuildOptions{Jobs: 1})
}

// BuildSpaceCtx is BuildSpaceOpts with the default (compiled) engine.
func BuildSpaceCtx(ctx context.Context, prog *sema.Program, jobs int) (*Space, error) {
	return BuildSpaceOpts(ctx, prog, BuildOptions{Jobs: jobs})
}

// BuildOptions configures BuildSpaceOpts.
type BuildOptions struct {
	// Jobs bounds the enumeration worker pool (0 = GOMAXPROCS, 1 = inline
	// serial).
	Jobs int
	// Engine selects the execution engine the space is built for; the
	// space's consumers (validation, dependence build, trace generation)
	// honor it. The zero value is EngineCompiled.
	Engine Engine
	// Span, when non-nil, receives a "compile" child covering kernel
	// lowering on the compiled engine.
	Span *obs.Span
}

// BuildSpaceOpts enumerates prog's iterations and compiles its references,
// fanning the per-nest enumeration out over at most opt.Jobs workers (0 =
// GOMAXPROCS, 1 = inline serial). Each nest's slice of the space is
// enumerated independently and stitched in nest order, so the result is
// identical at every jobs value — and, by the engine-parity invariants, at
// either engine.
//
// On the compiled engine the nests are lowered to iteration kernels first;
// the exact per-nest volumes fall out of the lowering, so each nest's flat
// iteration-vector arena is allocated at final size and run-filled. The
// interp engine keeps the original two-pass tree-walk enumeration as the
// reference oracle, writing the same arena representation.
func BuildSpaceOpts(ctx context.Context, prog *sema.Program, opt BuildOptions) (*Space, error) {
	s := &Space{
		Prog:      prog,
		NestFirst: make([]int, len(prog.Nests)),
		arena:     make([][]int64, len(prog.Nests)),
		depths:    make([]int, len(prog.Nests)),
		refs:      make([][]compiledRef, len(prog.Nests)),
		engine:    opt.Engine,
	}
	for i, n := range prog.Nests {
		s.depths[i] = n.Depth()
		crefs, err := compileNest(n)
		if err != nil {
			return nil, err
		}
		s.refs[i] = crefs
	}
	if opt.Engine == EngineCompiled {
		return s.buildCompiled(ctx, opt)
	}
	return s.buildInterp(ctx, opt.Jobs)
}

// buildCompiled lowers every nest to an iteration kernel, then run-fills
// each nest's arena through the kernel's odometer: one exactly-sized
// allocation per nest, no append growth, no per-iteration headers.
func (s *Space) buildCompiled(ctx context.Context, opt BuildOptions) (*Space, error) {
	sp := opt.Span.Child("compile")
	s.kernels = make([]*kernel, len(s.Prog.Nests))
	for i, n := range s.Prog.Nests {
		s.kernels[i] = compileKernel(n)
	}
	sp.End()
	total := 0
	for i, k := range s.kernels {
		s.NestFirst[i] = total
		total += int(k.count)
	}
	if total == 0 {
		return nil, fmt.Errorf("interp: program has no iterations")
	}
	s.total = total
	err := conc.ForEach(ctx, len(s.kernels), opt.Jobs, func(_ context.Context, i int) error {
		k := s.kernels[i]
		if k.count == 0 {
			return nil
		}
		flat := make([]int64, int(k.count)*k.depth)
		k.enumerateInto(flat)
		s.arena[i] = flat
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildInterp is the original tree-walk enumeration, kept as the reference
// oracle: each nest is counted by a first enumeration pass and a second
// tree-walk pass copies every iteration vector into the nest's arena.
func (s *Space) buildInterp(ctx context.Context, jobs int) (*Space, error) {
	prog := s.Prog
	err := conc.ForEach(ctx, len(prog.Nests), jobs, func(_ context.Context, i int) error {
		n := prog.Nests[i]
		count := n.IterationCount()
		if count == 0 {
			return nil
		}
		depth := n.Depth()
		flat := make([]int64, 0, count*int64(depth))
		n.ForEachIteration(func(iv affine.Vector) {
			flat = append(flat, iv...)
		})
		s.arena[i] = flat
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range s.arena {
		s.NestFirst[i] = total
		total += len(s.arena[i]) / s.depths[i]
	}
	if total == 0 {
		return nil, fmt.Errorf("interp: program has no iterations")
	}
	s.total = total
	return s, nil
}

func compileNest(n *sema.Nest) ([]compiledRef, error) {
	iters := n.Iterators()
	var out []compiledRef
	addRef := func(r *sema.Ref, write bool, stmt int) error {
		a := r.Array
		// Row-major strides.
		strides := make([]int64, len(a.Dims))
		st := int64(1)
		for k := len(a.Dims) - 1; k >= 0; k-- {
			strides[k] = st
			st *= a.Dims[k]
		}
		cr := compiledRef{
			arr:   a,
			coef:  make([]int64, len(iters)),
			write: write,
			stmt:  stmt,
			subs:  r.Subs,
		}
		for k, sub := range r.Subs {
			cr.c0 += sub.Const * strides[k]
			for l, v := range iters {
				cr.coef[l] += sub.Coeff(v) * strides[k]
			}
		}
		out = append(out, cr)
		return nil
	}
	for _, st := range n.Stmts {
		if st.Write != nil {
			if err := addRef(st.Write, true, st.Index); err != nil {
				return nil, err
			}
		}
		for _, r := range st.Reads {
			if err := addRef(r, false, st.Index); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// NumIterations returns the total number of iteration instances.
func (s *Space) NumIterations() int { return s.total }

// Accesses appends the accesses of global iteration id to buf and returns
// it. Accesses appear in statement order, with each statement's write
// after its reads (an assignment reads its operands before storing).
func (s *Space) Accesses(id int, buf []Access) []Access {
	k := s.Nest(id)
	iv := s.iterVecIn(k, id)
	refs := s.refs[k]
	// refs are stored write-first per statement; reorder to reads-then-
	// write per statement on the fly.
	i := 0
	for i < len(refs) {
		stmt := refs[i].stmt
		j := i
		for j < len(refs) && refs[j].stmt == stmt {
			j++
		}
		// reads first
		for k := i; k < j; k++ {
			if !refs[k].write {
				buf = append(buf, access(refs[k], iv))
			}
		}
		for k := i; k < j; k++ {
			if refs[k].write {
				buf = append(buf, access(refs[k], iv))
			}
		}
		i = j
	}
	return buf
}

func access(cr compiledRef, iv affine.Vector) Access {
	lin := cr.c0
	for l, c := range cr.coef {
		lin += c * iv[l]
	}
	return Access{Array: cr.arr, Lin: lin, Write: cr.write, Stmt: cr.stmt}
}

// Validate checks every access of every iteration against the array bounds
// dimension by dimension. It catches subscript errors that the linearized
// fast path would silently fold into a wrong (but in-range) element.
// Validate is the serial reference path of ValidateCtx.
func (s *Space) Validate() error {
	return s.ValidateCtx(context.Background(), 1)
}

// checkedRef is a reference with its subscripts compiled against the
// nest's iterator order, so validation evaluates them straight off the
// iteration vector — no per-iteration environment map.
type checkedRef struct {
	ref  *sema.Ref
	subs []affine.VecExpr
}

// ValidateCtx is Validate chunked over iteration ranges on at most jobs
// workers (0 = GOMAXPROCS, 1 = inline serial, which checks iterations in
// exact program order). The set of detected violations is the same at any
// jobs value; under parallel execution the reported violation is the
// earliest one of the first finishing chunk rather than the globally
// first. On a compiled-engine space the subscripts are checked through
// incremental stride updates instead of per-dimension re-evaluation; both
// paths check references in the same order and format identical errors.
func (s *Space) ValidateCtx(ctx context.Context, jobs int) error {
	if s.engine == EngineCompiled {
		return s.validateCompiled(ctx, jobs)
	}
	perNest := make([][]checkedRef, len(s.Prog.Nests))
	maxRank := 0
	for i, n := range s.Prog.Nests {
		vars := n.Iterators()
		for _, st := range n.Stmts {
			for _, r := range st.Refs() {
				cr := checkedRef{ref: r, subs: make([]affine.VecExpr, len(r.Subs))}
				for k, sub := range r.Subs {
					cr.subs[k] = sub.MustBind(vars)
				}
				if len(cr.subs) > maxRank {
					maxRank = len(cr.subs)
				}
				perNest[i] = append(perNest[i], cr)
			}
		}
	}
	chunks := conc.Chunks(s.total, chunkCount(s.total, jobs))
	errs := make([]error, len(chunks))
	poolErr := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		idx := make([]int64, maxRank)
		for id := chunks[k][0]; id < chunks[k][1]; id++ {
			it := s.IterAt(id)
			for _, cr := range perNest[it.Nest] {
				sub := idx[:len(cr.subs)]
				for d, e := range cr.subs {
					sub[d] = e.EvalVec(it.Iter)
				}
				if _, ok := cr.ref.Array.LinearIndex(sub); !ok {
					n := s.Prog.Nests[it.Nest]
					errs[k] = fmt.Errorf("interp: nest %s iteration %s: %s subscripts %v out of bounds (dims %v)",
						n.Name, it.Iter, cr.ref, sub, cr.ref.Array.Dims)
					return errs[k]
				}
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return poolErr
}

// chunkCount over-decomposes a chunked sweep relative to the worker count
// so uneven chunks still balance; it never splits finer than a minimum
// grain, keeping tiny inputs effectively serial.
func chunkCount(n, jobs int) int {
	const minGrain = 1 << 10
	return conc.ChunkCount(n, jobs, minGrain)
}

// DepGraph is the exact iteration-level dependence DAG. Preds[u] lists the
// global iteration ids that must execute before iteration u; Succs is the
// inverse. Both lists are sorted and duplicate-free; an empty list is nil,
// and every list is carved with cap == len, so appending to one copies it
// rather than overwriting a neighbour. Edges always point from an earlier
// program-order iteration to a later one, so the graph is acyclic by
// construction.
type DepGraph struct {
	Preds [][]int32
	Succs [][]int32
	edges int
}

// NumEdges returns the number of dependence edges.
func (g *DepGraph) NumEdges() int { return g.edges }

// elemState tracks the access history of one array element during replay:
// its last writer and the readers since that write, a list threaded
// through readerLists. Eight bytes per element, no per-element slice.
type elemState struct {
	lastWriter int32 // -1 before the first write
	readers    int32 // head of the reader list in readerLists, -1 when empty
}

func newElemStates(a *sema.Array) []elemState {
	st := make([]elemState, a.Elems())
	for i := range st {
		st[i] = elemState{lastWriter: -1, readers: -1}
	}
	return st
}

// readerNode is one reader in an element's list, most recent first.
type readerNode struct{ u, next int32 }

// readerLists holds the reader lists of one replay's elements. A write
// hands its element's nodes to the free list, so nodes grow only to the
// largest number of readers pending at once, not to the number of reads.
type readerLists struct {
	nodes []readerNode
	free  int32 // head of the free list, -1 when empty
}

func newReaderLists() *readerLists { return &readerLists{free: -1} }

// access replays iteration u's access to element es, appending to preds
// every earlier iteration the access depends on: the last writer (a flow
// or output edge) and, for a write, every reader since it (anti edges).
// Same-iteration accesses never create edges (the iteration is the atomic
// scheduling unit), and a reader is recorded once per iteration. preds
// comes out in no particular order.
func (rl *readerLists) access(es *elemState, u int32, write bool, preds []int32) []int32 {
	if w := es.lastWriter; w >= 0 && w != u {
		preds = append(preds, w)
	}
	head := es.readers
	if write {
		if head >= 0 {
			i := head
			for {
				n := &rl.nodes[i]
				if n.u != u {
					preds = append(preds, n.u)
				}
				if n.next < 0 {
					n.next = rl.free
					break
				}
				i = n.next
			}
			rl.free = head
		}
		es.lastWriter, es.readers = u, -1
		return preds
	}
	if head >= 0 && rl.nodes[head].u == u {
		return preds
	}
	i := rl.free
	if i >= 0 {
		rl.free = rl.nodes[i].next
		rl.nodes[i] = readerNode{u: u, next: head}
	} else {
		i = int32(len(rl.nodes))
		rl.nodes = append(rl.nodes, readerNode{u: u, next: head})
	}
	es.readers = i
	return preds
}

// predBlock is the size, in edges, of the fixed blocks BuildDeps carves
// predecessor lists from. A list that does not fit the current block's
// tail starts a fresh block (sized to the list if it is longer), so no
// block is ever regrown and copied.
const predBlock = 1 << 14

// BuildDeps replays the program in original order and constructs the exact
// dependence graph. Every edge found while replaying iteration u targets
// u, so u's predecessors are gathered as one segment, sorted, deduplicated
// and carved from a fixed-size block: a handful of allocations per block
// instead of one append growth per list.
func (s *Space) BuildDeps() *DepGraph {
	n := s.total
	g := &DepGraph{Preds: make([][]int32, n)}
	// Element state by Array.Index, built on an array's first access.
	states := make([][]elemState, len(s.Prog.Arrays))
	written := s.writtenArrays()
	readers := newReaderLists()
	var block, seg []int32
	str := s.NewStreamer()
	var buf []Access
	for u := 0; u < n; u++ {
		buf = str.Accesses(u, buf[:0])
		seg = seg[:0]
		for _, a := range buf {
			if !written[a.Array.Index] {
				continue
			}
			st := states[a.Array.Index]
			if st == nil {
				st = newElemStates(a.Array)
				states[a.Array.Index] = st
			}
			seg = readers.access(&st[a.Lin], int32(u), a.Write, seg)
		}
		if len(seg) == 0 {
			continue
		}
		slices.Sort(seg)
		seg = slices.Compact(seg)
		if cap(block)-len(block) < len(seg) {
			block = make([]int32, 0, max(predBlock, len(seg)))
		}
		mark := len(block)
		block = append(block, seg...)
		g.Preds[u] = block[mark:len(block):len(block)]
		g.edges += len(seg)
	}
	g.buildSuccs()
	return g
}

// writtenArrays reports, by Array.Index, which arrays the program writes.
// Accesses to any other array induce no dependence edges (every element's
// last writer stays unset, and readers only matter to a later write), so
// both dependence builds skip them.
func (s *Space) writtenArrays() []bool {
	written := make([]bool, len(s.Prog.Arrays))
	for _, refs := range s.refs {
		for _, r := range refs {
			if r.write {
				written[r.arr.Index] = true
			}
		}
	}
	return written
}

// buildSuccs fills Succs as the transpose of Preds, every list carved from
// one backing array: out-degrees first, then one fill over ascending u, so
// each Succs[p] comes out sorted. Both dependence builds end here.
func (g *DepGraph) buildSuccs() {
	n := len(g.Preds)
	g.Succs = make([][]int32, n)
	// next[p] starts as the offset of p's list in flat and advances as the
	// list fills, ending at the offset of p+1's.
	next := make([]int32, n+1)
	for _, ps := range g.Preds {
		for _, p := range ps {
			next[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		next[p+1] += next[p]
	}
	flat := make([]int32, g.edges)
	for u, ps := range g.Preds {
		for _, p := range ps {
			flat[next[p]] = int32(u)
			next[p]++
		}
	}
	start := int32(0)
	for p := 0; p < n; p++ {
		if end := next[p]; end > start {
			g.Succs[p] = flat[start:end:end]
			start = end
		}
	}
}

// depCrossover is the iteration count below which BuildDepsCtx always
// takes the serial path: the per-array fan-out only pays for itself once
// the access streams are long enough to amortize the bucketing pass. A
// variable so the determinism tests can force the parallel path on small
// programs.
var depCrossover = 1 << 12

// accessRec is one array touch in the global replay stream, restricted to
// a single array: the per-array unit of the sharded dependence build.
type accessRec struct {
	lin   int64
	u     int32
	write bool
}

// edge is one dependence constraint: iteration from must precede to.
type edge struct{ from, to int32 }

// BuildDepsCtx builds the exact dependence graph like BuildDeps, but
// sharded by array over at most jobs workers (0 = GOMAXPROCS): element
// state never crosses arrays, so each array's access stream is replayed
// independently, and the per-array edge lists are merged into the same
// sorted, deduplicated Preds/Succs the serial replay produces. The result
// is deep-equal to BuildDeps at every jobs value; jobs == 1 and small
// spaces (under the crossover threshold) take the serial path outright.
func (s *Space) BuildDepsCtx(ctx context.Context, jobs int) (*DepGraph, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	n := s.total
	if jobs == 1 || n < depCrossover {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.BuildDeps(), nil
	}

	// Stage 1: bucket every access to a written array by array, preserving
	// global replay order, on chunked workers. Chunk k's buckets hold the
	// accesses of iterations [lo_k, hi_k), so concatenating a bucket row
	// across chunks yields that array's full stream in program order.
	// Per-iteration access counts are fixed per nest, so every bucket is
	// allocated at its exact final size up front.
	numArrays := len(s.Prog.Arrays)
	written := s.writtenArrays()
	chunks := conc.Chunks(n, chunkCount(n, jobs))
	buckets := make([][][]accessRec, len(chunks))
	err := conc.ForEach(ctx, len(chunks), jobs, func(_ context.Context, k int) error {
		bk := make([][]accessRec, numArrays)
		for ai, sz := range s.bucketSizes(chunks[k][0], chunks[k][1]) {
			if sz > 0 && written[ai] {
				bk[ai] = make([]accessRec, 0, sz)
			}
		}
		str := s.NewStreamer()
		var buf []Access
		for u := chunks[k][0]; u < chunks[k][1]; u++ {
			buf = str.Accesses(u, buf[:0])
			for _, a := range buf {
				ai := a.Array.Index
				if !written[ai] {
					continue
				}
				bk[ai] = append(bk[ai], accessRec{lin: a.Lin, u: int32(u), write: a.Write})
			}
		}
		buckets[k] = bk
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: replay each array's stream on its own worker, emitting its
	// edge list. Edges are emitted while processing their target iteration,
	// so each list is grouped by ascending to.
	perArray := make([][]edge, numArrays)
	err = conc.ForEach(ctx, numArrays, jobs, func(_ context.Context, ai int) error {
		total := 0
		for k := range buckets {
			total += len(buckets[k][ai])
		}
		if total == 0 {
			return nil
		}
		stream := make([]accessRec, 0, total)
		for k := range buckets {
			stream = append(stream, buckets[k][ai]...)
		}
		perArray[ai] = replayArray(s.Prog.Arrays[ai], stream)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3: merge the per-array edge lists into sorted, deduplicated
	// predecessor lists, chunked over target-iteration ranges. Each chunk
	// locates its [lo, hi) segment of every array's list by binary search
	// (the lists are sorted by to) and carves the merged lists from one
	// chunk-local backing array.
	g := &DepGraph{Preds: make([][]int32, n)}
	mergeChunks := conc.Chunks(n, chunkCount(n, jobs))
	edgeCounts := make([]int, len(mergeChunks))
	err = conc.ForEach(ctx, len(mergeChunks), jobs, func(_ context.Context, k int) error {
		lo, hi := mergeChunks[k][0], mergeChunks[k][1]
		var segs [][]edge
		total := 0
		for _, es := range perArray {
			start := sort.Search(len(es), func(i int) bool { return es[i].to >= int32(lo) })
			end := start + sort.Search(len(es)-start, func(i int) bool { return es[start+i].to >= int32(hi) })
			if end > start {
				segs = append(segs, es[start:end])
				total += end - start
			}
		}
		if total == 0 {
			return nil
		}
		backing := make([]int32, 0, total)
		cur := make([]int, len(segs))
		count := 0
		for u := lo; u < hi; u++ {
			mark := len(backing)
			for si, seg := range segs {
				for cur[si] < len(seg) && seg[cur[si]].to == int32(u) {
					backing = append(backing, seg[cur[si]].from)
					cur[si]++
				}
			}
			ps := backing[mark:]
			if len(ps) == 0 {
				continue
			}
			slices.Sort(ps)
			w := 0
			for i, p := range ps {
				if i == 0 || p != ps[i-1] {
					ps[w] = p
					w++
				}
			}
			backing = backing[:mark+w]
			g.Preds[u] = backing[mark : mark+w : mark+w]
			count += w
		}
		edgeCounts[k] = count
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range edgeCounts {
		g.edges += c
	}

	// Stage 4: successor lists, shared with the serial build.
	g.buildSuccs()
	return g, nil
}

// replayArray replays one array's access stream (already in global program
// order) against its element states, returning the dependence edges the
// stream induces. It replays each access with the same readerLists.access
// as the serial BuildDeps, restricted to a single array.
func replayArray(a *sema.Array, stream []accessRec) []edge {
	st := newElemStates(a)
	readers := newReaderLists()
	var edges []edge
	var preds []int32
	for _, rec := range stream {
		preds = readers.access(&st[rec.lin], rec.u, rec.write, preds[:0])
		for _, p := range preds {
			edges = append(edges, edge{from: p, to: rec.u})
		}
	}
	return edges
}

// VerifySchedule checks that order (a permutation of iteration ids) visits
// every iteration exactly once and respects every dependence edge. It is
// the correctness oracle for the restructuring transformations.
func (s *Space) VerifySchedule(g *DepGraph, order []int) error {
	n := s.total
	if len(order) != n {
		return fmt.Errorf("interp: schedule has %d entries, want %d", len(order), n)
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for p, id := range order {
		if id < 0 || id >= n {
			return fmt.Errorf("interp: schedule entry %d out of range", id)
		}
		if seen[id] {
			return fmt.Errorf("interp: iteration %d scheduled twice", id)
		}
		seen[id] = true
		pos[id] = p
	}
	for u := 0; u < n; u++ {
		for _, p := range g.Preds[u] {
			if pos[p] >= pos[u] {
				return fmt.Errorf("interp: dependence violated: %s must precede %s",
					s.IterAt(int(p)), s.IterAt(u))
			}
		}
	}
	return nil
}
