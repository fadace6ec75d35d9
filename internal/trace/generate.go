package trace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"diskreuse/internal/core"
	"diskreuse/internal/interp"
)

// Phase is one barrier-delimited batch of execution: each processor runs
// its iteration list concurrently with the others, and all processors join
// the barrier before the next phase begins. The single-processor case is a
// single phase with one list; the multiprocessor experiments use one phase
// per nest (§6's execution model).
type Phase struct {
	PerProc [][]int // iteration ids in execution order, indexed by processor
}

// Coalesce selects how repeated touches to the same page are absorbed
// before they become disk requests.
type Coalesce int

const (
	// FirstTouch emits one read and at most one write request per
	// (processor, nest, page): the compiler's out-of-core I/O insertion
	// fetches each page a nest needs once and writes each dirty page once.
	// Request counts are then independent of iteration order — matching
	// the paper's Table 2, which lists a single request count per
	// application across all versions — while arrival times still reflect
	// the schedule.
	FirstTouch Coalesce = iota
	// LRU models a small per-processor file cache instead: a touch to a
	// resident page is absorbed; a miss fetches the page, evicting the
	// least recently used. Request counts then depend on access order.
	LRU
)

// GenConfig controls trace generation.
type GenConfig struct {
	// ComputePerIter is the CPU time each iteration spends outside I/O,
	// standing in for the paper's SUN Blade1000 cycle estimates.
	ComputePerIter float64
	// Coalesce selects the request-coalescing model (default FirstTouch).
	Coalesce Coalesce
	// CachePages is the per-processor cache capacity in pages for the LRU
	// model. Zero selects DefaultCachePages.
	CachePages int
	// ServiceEstimate estimates the I/O completion time the generating
	// processor waits for on a cache miss (closed-loop generation). Zero
	// selects a 4-KiB full-speed Ultrastar service time.
	ServiceEstimate float64
}

// DefaultCachePages is the default per-processor cache capacity. It is
// deliberately small relative to the arrays: the paper's applications are
// out-of-core, so the cache absorbs only short-term reuse.
const DefaultCachePages = 64

// touchKey identifies a first-touch coalescing unit.
type touchKey struct {
	nest  int
	page  int64
	write bool
}

// lruNode is one resident page on the cache's recency ring.
type lruNode struct {
	page       int64
	prev, next *lruNode
}

// pageCache is a tiny LRU set of resident pages: a map for O(1) lookup
// plus an intrusive doubly-linked recency ring (root.next is most recent,
// root.prev least recent), so eviction is O(1) instead of a scan over the
// whole cache. Every recency stamp is distinct, so this is exactly the
// eviction order the earlier stamp-scan implementation produced.
type pageCache struct {
	cap   int
	pages map[int64]*lruNode
	root  lruNode // sentinel of the recency ring
}

func newPageCache(capacity int) *pageCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &pageCache{cap: capacity, pages: make(map[int64]*lruNode, capacity)}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

// touch returns true on hit; on miss it inserts the page, evicting the
// least recently used one if full.
func (c *pageCache) touch(page int64) bool {
	if n, ok := c.pages[page]; ok {
		c.unlink(n)
		c.pushFront(n)
		return true
	}
	var n *lruNode
	if len(c.pages) >= c.cap {
		n = c.root.prev // least recently used
		c.unlink(n)
		delete(c.pages, n.page)
		n.page = page
	} else {
		n = &lruNode{page: page}
	}
	c.pushFront(n)
	c.pages[page] = n
	return false
}

func (c *pageCache) unlink(n *lruNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (c *pageCache) pushFront(n *lruNode) {
	n.prev = &c.root
	n.next = c.root.next
	c.root.next.prev = n
	c.root.next = n
}

// Generate produces the disk request trace for an execution described by
// phases over the iteration space of r. Each processor has its own clock;
// a cache miss emits a request at the current clock and advances it by the
// service estimate (closed-loop generation, as when the source program
// blocks on a read), and each finished iteration advances it by the
// compute time. Clocks synchronize to the barrier (max of all clocks)
// between phases. ComputePerIter must be finite and non-negative and
// ServiceEstimate finite (non-positive selects the default), so no clock
// ever runs backwards.
//
// The returned requests are in arrival order, equal arrivals in generation
// order (phase, then processor, then emission) — exactly a stable sort of
// the generated requests by arrival. The compiled engine gets there without
// sorting: each processor's requests in a phase form one run of
// non-decreasing arrivals and every phase starts at a barrier no earlier
// than any arrival before it, so it stably merges each phase's runs, once
// the last phase is done, into an output of exactly the request count.
// The interp engine stable-sorts, as the independent oracle.
//
// The page-coalescing loop honors the engine the space was built with: on
// the compiled engine each iteration's linear indices come off the
// Streamer's stride tables and pages off precomputed per-array tables; on
// the interp engine the original per-access Accesses/ElemPage loop runs as
// the reference oracle. Both produce bit-identical request traces.
func Generate(r *core.Restructurer, phases []Phase, cfg GenConfig) ([]Request, error) {
	if math.IsNaN(cfg.ComputePerIter) || math.IsInf(cfg.ComputePerIter, 0) || cfg.ComputePerIter < 0 {
		return nil, fmt.Errorf("trace: ComputePerIter %v must be finite and non-negative", cfg.ComputePerIter)
	}
	if math.IsNaN(cfg.ServiceEstimate) || math.IsInf(cfg.ServiceEstimate, 0) {
		return nil, fmt.Errorf("trace: ServiceEstimate %v must be finite", cfg.ServiceEstimate)
	}
	if cfg.CachePages <= 0 {
		cfg.CachePages = DefaultCachePages
	}
	if cfg.ServiceEstimate <= 0 {
		cfg.ServiceEstimate = 5.474e-3 // 4 KiB at full Ultrastar speed
	}
	procs := 0
	for _, ph := range phases {
		if len(ph.PerProc) > procs {
			procs = len(ph.PerProc)
		}
	}
	if procs == 0 {
		return nil, fmt.Errorf("trace: no processors in phases")
	}
	if r.Space.Engine() == interp.EngineCompiled {
		return generateCompiled(r, phases, cfg, procs)
	}
	return generateInterp(r, phases, cfg, procs)
}

// generateInterp is the tree-walk oracle path of Generate, kept verbatim:
// per-access affine re-evaluation via Space.Accesses and page lookup via
// Layout.ElemPage.
func generateInterp(r *core.Restructurer, phases []Phase, cfg GenConfig, procs int) ([]Request, error) {
	clocks := make([]float64, procs)
	caches := make([]*pageCache, procs)
	touched := make([]map[touchKey]bool, procs)
	for p := range caches {
		caches[p] = newPageCache(cfg.CachePages)
		touched[p] = map[touchKey]bool{}
	}

	// absorb reports whether the access to page by processor p during nest
	// execution can be satisfied without a disk request.
	absorb := func(p int, nest int, page int64, write bool) bool {
		if cfg.Coalesce == LRU {
			return caches[p].touch(page)
		}
		k := touchKey{nest: nest, page: page, write: write}
		if touched[p][k] {
			return true
		}
		touched[p][k] = true
		return false
	}

	var reqs []Request
	var buf []interp.Access
	seen := make([]bool, r.Space.NumIterations())
	for _, ph := range phases {
		for p, order := range ph.PerProc {
			for _, id := range order {
				if id < 0 || id >= len(seen) {
					return nil, fmt.Errorf("trace: iteration id %d out of range", id)
				}
				if seen[id] {
					return nil, fmt.Errorf("trace: iteration %d appears twice", id)
				}
				seen[id] = true
				nest := r.Space.Nest(id)
				buf = r.Space.Accesses(id, buf[:0])
				for _, a := range buf {
					page, err := r.Layout.ElemPage(a.Array, a.Lin)
					if err != nil {
						return nil, err
					}
					if absorb(p, nest, page, a.Write) {
						continue
					}
					reqs = append(reqs, Request{
						Arrival: clocks[p],
						Block:   page,
						Size:    r.Layout.PageSize,
						Write:   a.Write,
						Proc:    p,
					})
					clocks[p] += cfg.ServiceEstimate
				}
				clocks[p] += cfg.ComputePerIter
			}
		}
		barrier(clocks)
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("trace: iteration %d never executed", id)
		}
	}
	SortByArrival(reqs)
	return reqs, nil
}

// barrier makes every processor wait for the slowest one: each clock
// advances to the latest (clocks never run backwards, so never below 0).
func barrier(clocks []float64) {
	maxClock := slices.Max(clocks)
	for p := range clocks {
		clocks[p] = maxClock
	}
}

// touchTableMax caps the flat first-touch table at 16 MiB per processor;
// larger page spaces fall back to per-nest maps (same absorb semantics,
// so the emitted trace is identical either way).
const touchTableMax = 1 << 24

// generateCompiled is the stride-compiled path of Generate. Linear element
// indices stream off the Space's compiled kernels (O(1) updates between
// consecutive iterations of a processor's order), and the page of element
// lin of array a is pageBase[a] + lin/elemsPerPage[a] — exact because the
// layout aligns every extent base to the stripe unit (a multiple of the
// page size) and requires the element size to divide the page size. When
// elements-per-page is a power of two the division is a shift.
// First-touch coalescing uses one flat byte of read/write bits per
// (processor, nest, page) — the same (nest, page, write) first-touch unit
// as the oracle's map, minus the hashing — with a map fallback for page
// spaces too large to table.
func generateCompiled(r *core.Restructurer, phases []Phase, cfg GenConfig, procs int) ([]Request, error) {
	numArrays := len(r.Space.Prog.Arrays)
	numNests := len(r.Space.Prog.Nests)
	pageBase := make([]int64, numArrays)
	elemsPerPage := make([]int64, numArrays)
	pageShift := make([]int, numArrays)
	elems := make([]int64, numArrays)
	for _, ext := range r.Layout.Extents {
		a := ext.Array
		epp := r.Layout.PageSize / a.ElemSize
		pageBase[a.Index] = ext.Base / r.Layout.PageSize
		elemsPerPage[a.Index] = epp
		pageShift[a.Index] = -1
		if epp&(epp-1) == 0 {
			pageShift[a.Index] = bits.TrailingZeros64(uint64(epp))
		}
		elems[a.Index] = a.Elems()
	}
	clocks := make([]float64, procs)
	caches := make([]*pageCache, procs)
	// Flat table: touched[p][nest*maxPage+page] holds touch bits (1 = read
	// seen, 2 = write seen). Allocated lazily per processor.
	maxPage := (r.Layout.TotalBytes() + r.Layout.PageSize - 1) / r.Layout.PageSize
	tableLen := int64(numNests) * maxPage
	useTable := tableLen > 0 && tableLen <= touchTableMax
	touched := make([][]uint8, procs)
	touchedMaps := make([][]map[int64]uint8, procs)
	for p := range caches {
		caches[p] = newPageCache(cfg.CachePages)
		if !useTable {
			touchedMaps[p] = make([]map[int64]uint8, numNests)
		}
	}

	// Each processor appends its requests to its own chunked log (see
	// reqLog); phase k's run of processor p is [ends[k*procs+p],
	// ends[(k+1)*procs+p]) of its log. Once the request count is known the
	// output is allocated at exactly that size, and each phase's runs
	// merge straight into it.
	logs := make([]reqLog, procs)
	ends := make([]int, procs, (len(phases)+1)*procs)
	str := r.Space.NewStreamer()
	seen := make([]bool, r.Space.NumIterations())
	for _, ph := range phases {
		for p, order := range ph.PerProc {
			tf := touched[p]
			if useTable && cfg.Coalesce != LRU && tf == nil {
				tf = make([]uint8, tableLen)
				touched[p] = tf
			}
			lg := logs[p]
			for _, id := range order {
				if id < 0 || id >= len(seen) {
					return nil, fmt.Errorf("trace: iteration id %d out of range", id)
				}
				if seen[id] {
					return nil, fmt.Errorf("trace: iteration %d appears twice", id)
				}
				seen[id] = true
				refs, vals := str.Step(id)
				nest := str.Nest()
				nestOff := int64(nest) * maxPage
				for j := range refs {
					lin := vals[j]
					ai := refs[j].ArrIdx
					if lin < 0 || lin >= elems[ai] {
						// Out of range: route through the oracle's lookup so
						// the error matches ElemPage's exactly.
						_, err := r.Layout.ElemPage(refs[j].Arr, lin)
						return nil, err
					}
					var page int64
					if sh := pageShift[ai]; sh >= 0 {
						page = pageBase[ai] + lin>>uint(sh)
					} else {
						page = pageBase[ai] + lin/elemsPerPage[ai]
					}
					write := refs[j].Write
					if cfg.Coalesce == LRU {
						if caches[p].touch(page) {
							continue
						}
					} else {
						bit := uint8(1)
						if write {
							bit = 2
						}
						if useTable {
							if tf[nestOff+page]&bit != 0 {
								continue
							}
							tf[nestOff+page] |= bit
						} else {
							tm := touchedMaps[p][nest]
							if tm == nil {
								tm = map[int64]uint8{}
								touchedMaps[p][nest] = tm
							}
							if tm[page]&bit != 0 {
								continue
							}
							tm[page] |= bit
						}
					}
					lg.push(Request{
						Arrival: clocks[p],
						Block:   page,
						Size:    r.Layout.PageSize,
						Write:   write,
						Proc:    p,
					})
					clocks[p] += cfg.ServiceEstimate
				}
				clocks[p] += cfg.ComputePerIter
			}
			logs[p] = lg
		}
		for _, lg := range logs {
			ends = append(ends, lg.n)
		}
		barrier(clocks)
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("trace: iteration %d never executed", id)
		}
	}
	total := 0
	for _, lg := range logs {
		total += lg.n
	}
	reqs := make([]Request, total)
	var merger runMerger
	off := 0
	for k := range phases {
		off += merger.merge(reqs[off:], logs, ends[k*procs:(k+1)*procs], ends[(k+1)*procs:(k+2)*procs])
	}
	return reqs, nil
}

// Chunk geometry of a reqLog: 512 requests (20 KiB) per chunk, which
// bounds both a short log's unused tail and the per-chunk allocation count
// of a long one.
const (
	chunkShift = 9
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// reqLog is one processor's emitted requests, in emission order, held in
// chunks of chunkLen requests: request i is chunks[i>>chunkShift][i&chunkMask].
// A full chunk is never copied or regrown.
type reqLog struct {
	chunks [][]Request
	n      int
}

// push appends r to the log.
func (l *reqLog) push(r Request) {
	k := l.n >> chunkShift
	if k == len(l.chunks) {
		l.chunks = append(l.chunks, make([]Request, 0, chunkLen))
	}
	l.chunks[k] = append(l.chunks[k], r)
	l.n++
}

// at returns request i of the log.
func (l *reqLog) at(i int) *Request {
	return &l.chunks[i>>chunkShift][i&chunkMask]
}

// copyTo copies requests [lo, lo+len(dst)) of the log into dst.
func (l *reqLog) copyTo(dst []Request, lo int) {
	for len(dst) > 0 {
		n := copy(dst, l.chunks[lo>>chunkShift][lo&chunkMask:])
		dst, lo = dst[n:], lo+n
	}
}

// runMerger stably merges a phase's per-processor request runs into
// arrival order in O(n log P) for n requests over P runs, reusing its heap
// across phases. Equal arrivals go to the lower run, then keep their order
// within the run, which is generation order.
type runMerger struct {
	heap []runHead // runs with unread requests, a min-heap on (arrival, run)
}

// runHead is one heap entry: a run, the log position of its next unread
// request, and the position its run ends at.
type runHead struct {
	arrival   float64 // arrival of the request at next
	next, end int
	run       int
}

func (a runHead) less(b runHead) bool {
	return a.arrival < b.arrival || (a.arrival == b.arrival && a.run < b.run)
}

// merge writes run k, requests [lo[k], hi[k]) of logs[k], to the front of
// dst in arrival order, for runs whose arrivals each never decrease, and
// returns the number of requests written.
func (m *runMerger) merge(dst []Request, logs []reqLog, lo, hi []int) int {
	h := m.heap[:0]
	for k := range logs {
		if lo[k] < hi[k] {
			h = append(h, runHead{arrival: logs[k].at(lo[k]).Arrival, next: lo[k], end: hi[k], run: k})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	i := 0
	for ; len(h) > 1; i++ {
		top := &h[0]
		lg := &logs[top.run]
		dst[i] = *lg.at(top.next)
		if top.next++; top.next < top.end {
			top.arrival = lg.at(top.next).Arrival
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if len(h) == 1 {
		last := h[0]
		logs[last.run].copyTo(dst[i:i+last.end-last.next], last.next)
		i += last.end - last.next
	}
	m.heap = h
	return i
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// SinglePhase wraps a single-processor schedule as one phase.
func SinglePhase(s *core.Schedule) []Phase {
	return []Phase{{PerProc: [][]int{s.Order}}}
}

// VerifyPhases checks that the phased execution respects every dependence
// edge of the graph: an edge u -> v is satisfied if u's phase precedes v's,
// or they share a phase AND a processor with u ordered before v. Barriers
// order distinct phases; nothing orders two processors within a phase.
func VerifyPhases(space *interp.Space, g *interp.DepGraph, phases []Phase) error {
	n := space.NumIterations()
	phaseOf := make([]int, n)
	procOf := make([]int, n)
	posOf := make([]int, n)
	placed := make([]bool, n)
	for pi, ph := range phases {
		for p, order := range ph.PerProc {
			for pos, id := range order {
				if id < 0 || id >= n {
					return fmt.Errorf("trace: phase %d: id %d out of range", pi, id)
				}
				if placed[id] {
					return fmt.Errorf("trace: iteration %d placed twice", id)
				}
				placed[id] = true
				phaseOf[id], procOf[id], posOf[id] = pi, p, pos
			}
		}
	}
	for id, ok := range placed {
		if !ok {
			return fmt.Errorf("trace: iteration %d not placed", id)
		}
	}
	for v := 0; v < n; v++ {
		for _, u32 := range g.Preds[v] {
			u := int(u32)
			switch {
			case phaseOf[u] < phaseOf[v]:
			case phaseOf[u] > phaseOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v runs backwards across phases",
					space.IterAt(u), space.IterAt(v))
			case procOf[u] != procOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v crosses processors %d/%d within a phase",
					space.IterAt(u), space.IterAt(v), procOf[u], procOf[v])
			case posOf[u] >= posOf[v]:
				return fmt.Errorf("trace: dependence %v -> %v out of order on processor %d",
					space.IterAt(u), space.IterAt(v), procOf[u])
			}
		}
	}
	return nil
}

// NestPhases builds one phase per nest from a per-processor assignment of
// iteration ids (each inner list already in the desired execution order).
// perProcOrders[p] holds processor p's full iteration order; iterations are
// split into phases by their nest, preserving relative order. The lists are
// counted first and carved from one backing; an empty list is nil.
func NestPhases(space *interp.Space, perProcOrders [][]int, numNests int) []Phase {
	phases := make([]Phase, numNests)
	procs := len(perProcOrders)
	counts := make([]int, numNests*procs) // counts[k*procs+p]
	total := 0
	for p, order := range perProcOrders {
		for _, id := range order {
			counts[space.Nest(id)*procs+p]++
		}
		total += len(order)
	}
	backing := make([]int, total)
	off := 0
	for k := range phases {
		phases[k].PerProc = make([][]int, procs)
		for p, c := range counts[k*procs : (k+1)*procs] {
			if c > 0 {
				phases[k].PerProc[p] = backing[off : off : off+c] // filled in place below
				off += c
			}
		}
	}
	for p, order := range perProcOrders {
		for _, id := range order {
			k := space.Nest(id)
			phases[k].PerProc[p] = append(phases[k].PerProc[p], id)
		}
	}
	return phases
}
