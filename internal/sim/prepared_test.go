package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// lcg is a deterministic pseudo-random source for the property tests (no
// seed-dependent flakiness, reproducible failures).
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// randomTrace builds a bursty multi-disk, multi-processor trace: dense
// request trains, occasional sleepable gaps (so TPM/DRPM state machines
// exercise their transitions), exact-arrival ties (so tie-break and stable
// ordering paths are hit), and mixed sizes.
func randomTrace(seed uint64, n, disks, procs int) []trace.Request {
	g := lcg(seed)
	reqs := make([]trace.Request, 0, n)
	tt := 0.0
	for i := 0; i < n; i++ {
		switch g.intn(20) {
		case 0:
			tt += 20 + float64(g.intn(40)) // long, sleepable gap
		case 1, 2:
			// exact-arrival tie with the previous request
		default:
			tt += float64(g.intn(100)) * 1e-3
		}
		size := int64(4096)
		if g.intn(4) == 0 {
			size = 8192
		}
		reqs = append(reqs, trace.Request{
			Arrival: tt,
			Block:   int64(g.intn(disks * 64)),
			Size:    size,
			Write:   g.intn(3) == 0,
			Proc:    g.intn(procs),
		})
	}
	return reqs
}

func modDisk(disks int) func(int64) (int, error) {
	return func(b int64) (int, error) { return int(b % int64(disks)), nil }
}

// TestParallelOpenLoopMatchesSerial pins the sharded open-loop replay's
// determinism contract: at every worker count 1..8 the Result is
// reflect.DeepEqual to the serial (Jobs 1) run — same float summation
// order, same per-disk stats — and the recorded interval stream is
// identical element for element.
func TestParallelOpenLoopMatchesSerial(t *testing.T) {
	cases := []struct {
		seed            uint64
		n, disks, procs int
	}{
		{1, 400, 1, 1},
		{2, 800, 4, 3},
		{3, 1500, 8, 4},
		{4, 300, 5, 2},
	}
	for _, tc := range cases {
		reqs := randomTrace(tc.seed, tc.n, tc.disks, tc.procs)
		diskOf := modDisk(tc.disks)
		for _, pol := range []Policy{NoPM, TPM, DRPM} {
			ref := cfg(pol, tc.disks)
			ref.Jobs = 1
			var refIvs []Interval
			ref.Record = func(iv Interval) { refIvs = append(refIvs, iv) }
			want, err := Run(reqs, diskOf, ref)
			if err != nil {
				t.Fatal(err)
			}
			for jobs := 2; jobs <= 8; jobs++ {
				c := cfg(pol, tc.disks)
				c.Jobs = jobs
				var ivs []Interval
				c.Record = func(iv Interval) { ivs = append(ivs, iv) }
				got, err := Run(reqs, diskOf, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %v jobs=%d: result differs from serial", tc.seed, pol, jobs)
				}
				if !reflect.DeepEqual(ivs, refIvs) {
					t.Errorf("seed %d %v jobs=%d: interval stream differs from serial", tc.seed, pol, jobs)
				}
			}
		}
	}
}

// TestRunPreparedMatchesRun pins the bucket-once-replay-many contract: one
// PreparedTrace reused across every policy and both replay models gives
// results identical to preparing from scratch per run.
func TestRunPreparedMatchesRun(t *testing.T) {
	const disks = 8
	reqs := randomTrace(9, 900, disks, 4)
	diskOf := modDisk(disks)
	pt, err := PrepareTrace(reqs, diskOf, disks)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumDisks() != disks || pt.Requests() != len(reqs) {
		t.Fatalf("prepared trace: %d disks, %d requests", pt.NumDisks(), pt.Requests())
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, closed := range []bool{false, true} {
			c := cfg(pol, disks)
			c.ClosedLoop = closed
			direct, err := Run(reqs, diskOf, c)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := RunPrepared(pt, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, direct) {
				t.Errorf("%v closed=%v: prepared-trace reuse changed the result", pol, closed)
			}
		}
	}
}

// TestPrepareTraceNotMutatedByRun pins the immutability contract behind
// the harness's read-only sharing: replaying a PreparedTrace — serial,
// parallel, closed-loop, RAID-striped — must leave every prepared
// artifact bit-identical, so concurrent RunPrepared calls are safe.
func TestPrepareTraceNotMutatedByRun(t *testing.T) {
	const disks = 4
	reqs := randomTrace(7, 600, disks, 3)
	pt, err := PrepareTrace(reqs, modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]trace.Request(nil), pt.sorted...)
	diskOf := modDisk(disks)
	for i, r := range pt.sorted {
		if d, _ := diskOf(r.Block); int(pt.disk[i]) != d {
			t.Fatalf("prepared disk label: request %d on disk %d, want %d", i, pt.disk[i], d)
		}
	}
	reqDisk := append([]int32(nil), pt.disk...)
	ptIDs, ptReqs := pt.procStreams()
	procIDs := append([]int(nil), ptIDs...)
	procReqs := make([][]int, len(ptReqs))
	for k := range ptReqs {
		procReqs[k] = append([]int(nil), ptReqs[k]...)
	}

	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		for _, closed := range []bool{false, true} {
			c := cfg(pol, disks)
			c.ClosedLoop = closed
			c.Jobs = 3
			c.RAIDWidth = 2
			if _, err := RunPrepared(pt, c); err != nil {
				t.Fatal(err)
			}
		}
	}

	if !reflect.DeepEqual(pt.sorted, sorted) {
		t.Error("Run mutated the prepared arrival order")
	}
	if !reflect.DeepEqual(pt.disk, reqDisk) {
		t.Error("Run mutated the prepared disk attribution")
	}
	if ptIDs, ptReqs := pt.procStreams(); !reflect.DeepEqual(ptIDs, procIDs) || !reflect.DeepEqual(ptReqs, procReqs) {
		t.Error("Run mutated the prepared processor streams")
	}
}

// TestProcStreamsBuiltOnFirstClosedLoopUse pins the lazy processor
// grouping: open-loop replays never build it, and the first closed-loop
// replay builds exactly trace.ProcStreams of the arrival order.
func TestProcStreamsBuiltOnFirstClosedLoopUse(t *testing.T) {
	const disks = 4
	pt, err := PrepareTrace(randomTrace(3, 500, disks, 5), modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		if _, err := RunPrepared(pt, cfg(pol, disks)); err != nil {
			t.Fatal(err)
		}
	}
	if pt.procIDs != nil || pt.procReqs != nil {
		t.Fatal("an open-loop replay built the processor grouping")
	}
	c := cfg(TPM, disks)
	c.ClosedLoop = true
	if _, err := RunPrepared(pt, c); err != nil {
		t.Fatal(err)
	}
	wantIDs, wantReqs := trace.ProcStreams(pt.sorted)
	if !reflect.DeepEqual(pt.procIDs, wantIDs) || !reflect.DeepEqual(pt.procReqs, wantReqs) {
		t.Errorf("lazy grouping %v %v, want %v %v", pt.procIDs, pt.procReqs, wantIDs, wantReqs)
	}
}

// TestConcurrentClosedLoopFirstUse races the lazy grouping's first build:
// many goroutines start closed-loop replays of one fresh PreparedTrace at
// once (go test -race checks the sync.Once), and every result must equal a
// serial replay of a separately prepared copy.
func TestConcurrentClosedLoopFirstUse(t *testing.T) {
	const disks, workers = 4, 8
	reqs := randomTrace(21, 800, disks, 6)
	c := cfg(DRPM, disks)
	c.ClosedLoop = true
	want, err := Run(reqs, modDisk(disks), c)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrepareTrace(reqs, modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			results[w], errs[w] = RunPrepared(pt, c)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(results[w], want) {
			t.Errorf("worker %d: concurrent closed-loop replay differs from the serial one", w)
		}
	}
}

// TestAttributionProcRangeWithoutGrouping pins that RunPrepared still
// rejects a processor id outside an Attribution's range on an open-loop
// replay, which never builds the processor grouping — from the ids' range
// taken while preparing.
func TestAttributionProcRangeWithoutGrouping(t *testing.T) {
	const disks = 2
	for _, tc := range []struct {
		name  string
		procs []int
		ok    bool
	}{
		{"in-range", []int{0, 2, 1}, true},
		{"above", []int{0, 3, 1}, false},
		{"negative", []int{1, -1, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reqs []trace.Request
			for i, p := range tc.procs {
				reqs = append(reqs, trace.Request{Arrival: float64(i), Block: int64(i), Size: 4096, Proc: p})
			}
			pt, err := PrepareTrace(reqs, modDisk(disks), disks)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg(TPM, disks)
			c.Attribution = obs.NewProcAttribution(disks, 3)
			_, err = RunPrepared(pt, c)
			if tc.ok && err != nil {
				t.Fatalf("in-range processors rejected: %v", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "processor id")) {
				t.Fatalf("out-of-range processor accepted (err %v)", err)
			}
			if pt.procIDs != nil {
				t.Error("the range check built the processor grouping")
			}
		})
	}
}

// TestClosedLoopTieBreakIsInsertionIndependent pins the streamHeap
// tie-break: processors whose next issues fall at the exact same time are
// serviced in processor-id order, so permuting equal-arrival input lines
// (which permutes the heap's insertion history) cannot change the replay.
func TestClosedLoopTieBreakIsInsertionIndependent(t *testing.T) {
	// Three processors, identical arrival clocks, per-processor sizes: the
	// service order at each tie determines each request's queueing delay,
	// so any insertion-order dependence would show in ResponseTime.
	mk := func(order []int) []trace.Request {
		var reqs []trace.Request
		for step := 0; step < 5; step++ {
			for _, p := range order {
				reqs = append(reqs, trace.Request{
					Arrival: float64(step) * 2,
					Block:   0,
					Size:    4096 << p,
					Proc:    p,
				})
			}
		}
		return reqs
	}
	c := cfg(NoPM, 1)
	c.ClosedLoop = true
	c.AsyncDepth = 1
	fwd, err := Run(mk([]int{0, 1, 2}), oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Run(mk([]int{2, 1, 0}), oneDisk, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Errorf("equal-time replay depends on input permutation: %+v vs %+v", fwd, rev)
	}
}

// TestConfigValidation covers the explicit knob validation: negative Jobs,
// RAIDWidth, and AsyncDepth are rejected with messages naming the field,
// and RunPrepared enforces NumDisks consistency with the prepared trace.
func TestConfigValidation(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Block: 0, Size: 4096}}
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Jobs", func(c *Config) { c.Jobs = -1 }},
		{"RAIDWidth", func(c *Config) { c.RAIDWidth = -2 }},
		{"AsyncDepth", func(c *Config) { c.AsyncDepth = -3 }},
	} {
		c := cfg(NoPM, 1)
		tc.mut(&c)
		_, err := Run(reqs, oneDisk, c)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("negative %s: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}

	pt, err := PrepareTrace(reqs, oneDisk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPrepared(pt, cfg(NoPM, 3)); err == nil {
		t.Error("NumDisks mismatch with the prepared trace must fail")
	}
	// Zero NumDisks adopts the prepared trace's disk count.
	res, err := RunPrepared(pt, cfg(NoPM, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDisk) != 2 {
		t.Errorf("PerDisk = %d disks, want 2 from the prepared trace", len(res.PerDisk))
	}
	// PrepareTrace itself validates the mapping.
	if _, err := PrepareTrace(reqs, oneDisk, 0); err == nil {
		t.Error("zero disks must fail")
	}
	if _, err := PrepareTrace(reqs, func(int64) (int, error) { return 7, nil }, 2); err == nil {
		t.Error("disk index out of range must fail")
	}
}
