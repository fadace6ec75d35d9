package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"diskreuse/internal/core"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

func build(t *testing.T, src string) *core.Restructurer {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	reqs := []Request{
		{Arrival: 0, Block: 12, Size: 4096, Write: false, Proc: 0},
		{Arrival: 0.0123456, Block: 99, Size: 32768, Write: true, Proc: 3},
		{Arrival: 1.5, Block: 0, Size: 4096, Write: false, Proc: 1},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if math.Abs(got[i].Arrival-reqs[i].Arrival) > 1e-9 ||
			got[i].Block != reqs[i].Block || got[i].Size != reqs[i].Size ||
			got[i].Write != reqs[i].Write || got[i].Proc != reqs[i].Proc {
			t.Errorf("request %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
}

func TestDecodeCommentsAndErrors(t *testing.T) {
	good := "# comment\n\n1.0 5 4096 R 0\n2.0 6 4096 w 1\n"
	reqs, err := Decode(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[1].Write != true {
		t.Errorf("reqs = %+v", reqs)
	}
	bad := []string{
		"1.0 5 4096 R\n",
		"x 5 4096 R 0\n",
		"1.0 x 4096 R 0\n",
		"1.0 5 x R 0\n",
		"1.0 5 4096 Q 0\n",
		"1.0 5 4096 R x\n",
	}
	for _, b := range bad {
		if _, err := Decode(strings.NewReader(b)); err == nil {
			t.Errorf("Decode(%q) should fail", b)
		}
	}
}

func TestPageCacheLRU(t *testing.T) {
	c := newPageCache(2)
	if c.touch(1) {
		t.Error("first touch must miss")
	}
	if !c.touch(1) {
		t.Error("second touch must hit")
	}
	c.touch(2)
	c.touch(1) // refresh 1; LRU is now 2
	c.touch(3) // evicts 2
	if !c.touch(1) {
		t.Error("1 must still be resident")
	}
	if c.touch(2) {
		t.Error("2 must have been evicted")
	}
}

const seqScanSrc = `
array A[8192] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to 8191 { read A[i]; } }
`

func TestGenerateSequentialScan(t *testing.T) {
	r := build(t, seqScanSrc)
	s := r.OriginalSchedule()
	reqs, err := Generate(r, SinglePhase(s), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// 8192 float64s = 64 KiB = 16 pages: one request per page.
	if len(reqs) != 16 {
		t.Fatalf("requests = %d, want 16", len(reqs))
	}
	for i, rq := range reqs {
		if rq.Block != int64(i) {
			t.Errorf("request %d block = %d", i, rq.Block)
		}
		if rq.Write || rq.Proc != 0 || rq.Size != 4096 {
			t.Errorf("request %d = %+v", i, rq)
		}
	}
	// Arrivals strictly increasing (closed loop + compute time).
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival <= reqs[i-1].Arrival {
			t.Errorf("arrivals not increasing at %d", i)
		}
	}
}

func TestGenerateCacheSuppressesReuse(t *testing.T) {
	// Two nests reading the same small array back to back: the second scan
	// hits cache entirely when the array fits.
	r := build(t, `
array A[512] stripe(unit=4K, factor=2, start=0)
nest L1 { for i = 0 to 511 { read A[i]; } }
nest L2 { for i = 0 to 511 { read A[i]; } }
`)
	s := r.OriginalSchedule()
	reqs, err := Generate(r, SinglePhase(s), GenConfig{ComputePerIter: 1e-6, Coalesce: LRU, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// 512 float64s = 4 KiB = 1 page; second nest hits in the LRU cache.
	if len(reqs) != 1 {
		t.Fatalf("requests = %d, want 1", len(reqs))
	}
	// Under first-touch coalescing each nest fetches the page once.
	reqs, err = Generate(r, SinglePhase(s), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("first-touch requests = %d, want 2", len(reqs))
	}
}

// First-touch coalescing makes request counts independent of iteration
// order: the restructured schedule issues exactly the same requests as the
// original, only at different times (the paper's Table 2 lists one request
// count per application across all versions).
func TestFirstTouchCountsOrderIndependent(t *testing.T) {
	r := build(t, `
array A[8192] stripe(unit=4K, factor=4, start=0)
array B[8192] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 1 to 8190 { A[i] = B[i] + B[i-1] + B[i+1]; } }
nest L2 { for i = 0 to 8191 { B[i] = A[i]; } }
`)
	orig, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	restr, err := Generate(r, SinglePhase(rs), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(restr) {
		t.Fatalf("request counts differ: %d vs %d", len(orig), len(restr))
	}
	count := func(reqs []Request) map[string]int {
		m := map[string]int{}
		for _, rq := range reqs {
			key := "R"
			if rq.Write {
				key = "W"
			}
			m[fmt.Sprintf("%s%d", key, rq.Block)]++
		}
		return m
	}
	co, cr := count(orig), count(restr)
	for k, v := range co {
		if cr[k] != v {
			t.Fatalf("request multiset differs at %s: %d vs %d", k, v, cr[k])
		}
	}
}

func TestGenerateWriteType(t *testing.T) {
	r := build(t, `
array A[512] stripe(unit=4K, factor=2, start=0)
array B[512] stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 511 { B[i] = A[i]; } }
`)
	reqs, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var rCount, wCount int
	for _, rq := range reqs {
		if rq.Write {
			wCount++
		} else {
			rCount++
		}
	}
	if rCount != 1 || wCount != 1 {
		t.Errorf("reads=%d writes=%d, want 1 and 1", rCount, wCount)
	}
}

func TestGenerateMultiProcBarriers(t *testing.T) {
	r := build(t, `
array A[4096] stripe(unit=4K, factor=4, start=0)
array B[4096] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to 4095 { A[i] = B[i]; } }
nest L2 { for i = 0 to 4095 { B[i] = A[i]; } }
`)
	// Two processors, split by halves; phases per nest.
	n := r.Space.NumIterations() / 2 // 4096 per nest
	perProc := [][]int{{}, {}}
	for id := 0; id < n; id++ {
		p := 0
		if id >= n/2 {
			p = 1
		}
		perProc[p] = append(perProc[p], id)
	}
	for id := n; id < 2*n; id++ {
		p := 0
		if id-n >= n/2 {
			p = 1
		}
		perProc[p] = append(perProc[p], id)
	}
	phases := NestPhases(r.Space, perProc, len(r.Prog.Nests))
	if len(phases) != 2 {
		t.Fatalf("phases = %d", len(phases))
	}
	if err := VerifyPhases(r.Space, r.Graph, phases); err != nil {
		t.Fatal(err)
	}
	reqs, err := Generate(r, phases, GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	// Requests from both processors present.
	procs := map[int]bool{}
	for _, rq := range reqs {
		procs[rq.Proc] = true
	}
	if !procs[0] || !procs[1] {
		t.Errorf("procs seen = %v", procs)
	}
	// Phase-2 requests must all arrive after the barrier, i.e. after every
	// phase-1 request from the SLOWER processor. Weaker, robust check: the
	// trace is sorted.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("trace not sorted by arrival")
		}
	}
}

func TestVerifyPhasesCatchesViolations(t *testing.T) {
	r := build(t, `
array A[1024] stripe(unit=4K, factor=2, start=0)
nest L1 { for i = 0 to 1023 { A[i] = A[i]; } }
nest L2 { for i = 0 to 1023 { read A[i]; } }
`)
	n := 1024
	// Violation: consumer phase before producer phase.
	bad := []Phase{
		{PerProc: [][]int{rangeIDs(n, 2*n)}},
		{PerProc: [][]int{rangeIDs(0, n)}},
	}
	if err := VerifyPhases(r.Space, r.Graph, bad); err == nil {
		t.Error("backwards phases must fail")
	}
	// Violation: same phase, different processors.
	bad2 := []Phase{{PerProc: [][]int{rangeIDs(0, n), rangeIDs(n, 2*n)}}}
	if err := VerifyPhases(r.Space, r.Graph, bad2); err == nil {
		t.Error("cross-processor same-phase dependence must fail")
	}
	// Legal: both nests on one processor in order.
	good := []Phase{{PerProc: [][]int{rangeIDs(0, 2*n)}}}
	if err := VerifyPhases(r.Space, r.Graph, good); err != nil {
		t.Errorf("legal phases rejected: %v", err)
	}
	// Missing iteration.
	if err := VerifyPhases(r.Space, r.Graph, []Phase{{PerProc: [][]int{rangeIDs(0, n)}}}); err == nil {
		t.Error("missing iterations must fail")
	}
	// Duplicate iteration.
	dup := []Phase{{PerProc: [][]int{append(rangeIDs(0, 2*n), 0)}}}
	if err := VerifyPhases(r.Space, r.Graph, dup); err == nil {
		t.Error("duplicate iterations must fail")
	}
}

func rangeIDs(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func TestGenerateErrors(t *testing.T) {
	r := build(t, seqScanSrc)
	if _, err := Generate(r, nil, GenConfig{}); err == nil {
		t.Error("no phases must fail")
	}
	if _, err := Generate(r, []Phase{{PerProc: [][]int{{0, 0}}}}, GenConfig{}); err == nil {
		t.Error("duplicate iteration must fail")
	}
	if _, err := Generate(r, []Phase{{PerProc: [][]int{{-1}}}}, GenConfig{}); err == nil {
		t.Error("bad id must fail")
	}
	short := []Phase{{PerProc: [][]int{{0, 1, 2}}}}
	if _, err := Generate(r, short, GenConfig{}); err == nil {
		t.Error("missing iterations must fail")
	}
	// Clocks that could run backwards or go NaN would break the arrival
	// order Generate promises.
	full := SinglePhase(r.OriginalSchedule())
	for _, cfg := range []GenConfig{
		{ComputePerIter: -1e-3},
		{ComputePerIter: math.NaN()},
		{ComputePerIter: math.Inf(1)},
		{ServiceEstimate: math.NaN()},
		{ServiceEstimate: math.Inf(1)},
		{ServiceEstimate: math.Inf(-1)},
	} {
		if _, err := Generate(r, full, cfg); err == nil {
			t.Errorf("Generate with %+v must fail", cfg)
		}
	}
}

// TestRunMergerMatchesStableSort pins the compiled generator's per-phase
// merge to the stable arrival sort it stands in for, on runs of
// non-decreasing arrivals: empty and single runs, all-equal arrivals,
// heavy ties across runs and a processor count far above the paper's.
// Each run sits after an earlier phase's requests in its processor's
// chunked log, and some runs span several chunks. One merger serves every
// case, so stale buffers from a larger phase would show.
func TestRunMergerMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ties := func() float64 { return float64(rng.Intn(2)) }
	same := func() float64 { return 0 }
	frac := func() float64 { return rng.Float64() }
	manyRuns := make([]int, 100)
	for k := range manyRuns {
		manyRuns[k] = rng.Intn(20)
	}
	cases := []struct {
		name string
		lens []int
		step func() float64
	}{
		{"large P", manyRuns, ties},
		{"no runs", nil, ties},
		{"all empty", []int{0, 0, 0}, ties},
		{"one run", []int{50}, ties},
		{"one run across chunks", []int{2*chunkLen + 7}, ties},
		{"one non-empty of many", []int{0, 0, 40, 0}, ties},
		{"all equal arrivals", []int{7, 3, 0, 9, 5}, same},
		{"two runs", []int{30, 45}, ties},
		{"three runs, one empty", []int{20, 0, 33}, ties},
		{"four runs", []int{64, 64, 64, 64}, ties},
		{"four runs, few ties", []int{64, 10, 64, 1}, frac},
		{"runs across chunks", []int{chunkLen + 3, 5, 3 * chunkLen, 0}, ties},
	}
	var m runMerger
	for _, tc := range cases {
		var phase []Request
		logs := make([]reqLog, len(tc.lens))
		lo := make([]int, len(tc.lens))
		hi := make([]int, len(tc.lens))
		for k, n := range tc.lens {
			// An earlier phase's requests, which the merge must skip.
			for i := rng.Intn(chunkLen + 2); i > 0; i-- {
				logs[k].push(Request{Arrival: -1, Block: -1, Proc: k})
			}
			lo[k] = logs[k].n
			at := 0.0
			for i := 0; i < n; i++ {
				at += tc.step()
				r := Request{Arrival: at, Block: int64(len(phase)), Proc: k}
				phase = append(phase, r)
				logs[k].push(r)
			}
			hi[k] = logs[k].n
		}
		want := append([]Request(nil), phase...)
		SortByArrival(want)
		got := make([]Request, len(phase))
		if n := m.merge(got, logs, lo, hi); n != len(phase) {
			t.Errorf("%s: merge wrote %d requests, want %d", tc.name, n, len(phase))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: merge = %v, stable sort = %v", tc.name, got, want)
		}
	}
}

// The clustering effect the whole paper rests on: a restructured schedule
// produces per-disk request streams that are contiguous in time, while the
// original interleaves them.
func TestGeneratedTraceClustersByDisk(t *testing.T) {
	r := build(t, `
array A[16384] stripe(unit=4K, factor=4, start=0)
array B[16384] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to 16383 { A[i] = B[i]; } }
nest L2 { for i = 0 to 16383 { B[i] = A[i]; } }
`)
	countDiskSwitches := func(reqs []Request) int {
		switches := 0
		prev := -1
		for _, rq := range reqs {
			d, err := r.Layout.PageDisk(rq.Block)
			if err != nil {
				t.Fatal(err)
			}
			if d != prev {
				switches++
				prev = d
			}
		}
		return switches
	}
	orig, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	restructured, err := Generate(r, SinglePhase(rs), GenConfig{ComputePerIter: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	so, sr := countDiskSwitches(orig), countDiskSwitches(restructured)
	if sr >= so {
		t.Errorf("restructured trace switches disks %d times, original %d — expected improvement", sr, so)
	}
	if sr != 4 {
		t.Errorf("restructured trace should visit each disk once, switches = %d", sr)
	}
}

// stampCache is the earlier O(cap)-eviction page cache, kept as the
// reference model: a recency stamp per page, evicting the minimum stamp.
// Stamps are distinct, so its eviction order is true LRU.
type stampCache struct {
	cap   int
	pages map[int64]int
	clock int
}

func (c *stampCache) touch(page int64) bool {
	c.clock++
	if _, ok := c.pages[page]; ok {
		c.pages[page] = c.clock
		return true
	}
	if len(c.pages) >= c.cap {
		oldPage, oldStamp := int64(-1), c.clock+1
		for p, s := range c.pages {
			if s < oldStamp {
				oldPage, oldStamp = p, s
			}
		}
		delete(c.pages, oldPage)
	}
	c.pages[page] = c.clock
	return false
}

// Property: the linked-list cache hits and misses exactly like the
// reference stamp-scan on random access streams — same results per touch
// means same eviction order throughout.
func TestQuickPageCacheMatchesStampScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + rng.Intn(16)
		lru := newPageCache(capacity)
		ref := &stampCache{cap: capacity, pages: make(map[int64]int, capacity)}
		span := int64(1 + rng.Intn(3*capacity)) // force plenty of evictions
		for step := 0; step < 2000; step++ {
			page := rng.Int63n(span)
			got, want := lru.touch(page), ref.touch(page)
			if got != want {
				t.Fatalf("trial %d (cap %d) step %d page %d: touch = %v, reference = %v",
					trial, capacity, step, page, got, want)
			}
		}
		if len(lru.pages) != len(ref.pages) {
			t.Fatalf("trial %d: resident count %d, reference %d",
				trial, len(lru.pages), len(ref.pages))
		}
		for p := range ref.pages {
			if _, ok := lru.pages[p]; !ok {
				t.Fatalf("trial %d: page %d resident in reference only", trial, p)
			}
		}
	}
}

func TestProcStreams(t *testing.T) {
	reqs := []Request{
		{Proc: 3}, {Proc: 1}, {Proc: 3}, {Proc: 0}, {Proc: 1}, {Proc: 3},
	}
	ids, per := ProcStreams(reqs)
	if want := []int{3, 1, 0}; !reflect.DeepEqual(ids, want) {
		t.Errorf("procIDs = %v, want first-appearance order %v", ids, want)
	}
	want := [][]int{{0, 2, 5}, {1, 4}, {3}}
	if !reflect.DeepEqual(per, want) {
		t.Errorf("perProc = %v, want %v", per, want)
	}
	// The flat carve must size each stream exactly: appending one more
	// index to any stream may not alias into its neighbor's backing.
	per[0] = append(per[0], 99)
	if !reflect.DeepEqual(per[1], []int{1, 4}) {
		t.Errorf("append to stream 0 corrupted stream 1: %v", per[1])
	}

	ids, per = ProcStreams(nil)
	if len(ids) != 0 || len(per) != 0 {
		t.Errorf("empty trace: ids=%v per=%v", ids, per)
	}
}

// NestPhases splits each processor's order by nest, preserving relative
// order, with lists carved cap == len (an append can never overwrite a
// neighbour) and nil where a processor has no iterations in a nest.
func TestNestPhasesShape(t *testing.T) {
	r := build(t, `
array A[1024] stripe(unit=4K, factor=2, start=0)
nest L1 { for i = 0 to 1023 { A[i] = A[i]; } }
nest L2 { for i = 0 to 511 { read A[i]; } }
nest L3 { for i = 0 to 255 { read A[i]; } }
`)
	n := r.Space.NumIterations()
	// Processor 0 runs L1 backwards and all of L3; processor 1 runs L2;
	// processor 2 runs nothing.
	perProc := make([][]int, 3)
	for id := 1023; id >= 0; id-- {
		perProc[0] = append(perProc[0], id)
	}
	for id := 1024; id < 1536; id++ {
		perProc[1] = append(perProc[1], id)
	}
	for id := 1536; id < n; id++ {
		perProc[0] = append(perProc[0], id)
	}
	phases := NestPhases(r.Space, perProc, len(r.Prog.Nests))
	want := [][][]int{
		{perProc[0][:1024], nil, nil},
		{nil, perProc[1], nil},
		{perProc[0][1024:], nil, nil},
	}
	for k, ph := range phases {
		for p, ids := range ph.PerProc {
			if !reflect.DeepEqual(ids, want[k][p]) { // DeepEqual tells nil from empty
				t.Fatalf("phase %d proc %d: %d ids, want %d", k, p, len(ids), len(want[k][p]))
			}
			if cap(ids) != len(ids) {
				t.Fatalf("phase %d proc %d: len %d cap %d", k, p, len(ids), cap(ids))
			}
		}
	}
}
