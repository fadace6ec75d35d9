package par

import (
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

// The Fig. 5/6 scenario: three nests over one array, with different access
// patterns. Loop parallelization gives each processor corresponding
// iteration-space blocks (different data); layout-aware parallelization
// gives each processor the iterations touching the same data region.
const fig56Src = `
param N = 64
array U[N][N] stripe(unit=4K, factor=4, start=0)
array V[N][N] stripe(unit=4K, factor=4, start=0)
nest L1 {
  for i = 0 to N-1 {
    for j = 0 to N-1 {
      V[i][j] = U[i][j];
    }
  }
}
nest L2 {
  for i = 0 to N-1 {
    for j = 0 to N-1 {
      V[i][j] = U[N-1-i][j];
    }
  }
}
nest L3 {
  for i = 0 to N-1 {
    for j = 0 to N-1 {
      V[i][j] = U[i][j] + 1;
    }
  }
}
`

func TestLoopParallelizeBasics(t *testing.T) {
	r := build(t, fig56Src)
	a, err := LoopParallelize(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckIntraNest(r); err != nil {
		t.Fatal(err)
	}
	for k := range r.Prog.Nests {
		if a.ParallelLevel[k] != 0 {
			t.Errorf("nest %d level = %d, want 0", k, a.ParallelLevel[k])
		}
	}
	loads := a.Loads()
	for p, l := range loads {
		if l != 64*64*3/4 {
			t.Errorf("proc %d load = %d", p, l)
		}
	}
	if im := a.Imbalance(); im != 1.0 {
		t.Errorf("imbalance = %v", im)
	}
	// §6.1 problem (Fig. 6a): processor 0 owns rows 0..15 of the iteration
	// space in EVERY nest — so in L2 it touches U rows 48..63 while in L1
	// it touches U rows 0..15: different data regions.
	// Verify the assignment really is position-based.
	it0 := r.Space.NestFirst[0]       // L1 (0,0)
	it2 := r.Space.NestFirst[1]       // L2 (0,0)
	if a.Owner[it0] != a.Owner[it2] { // same position -> same proc
		t.Errorf("corresponding blocks should share a processor under §6.1")
	}
}

func TestLayoutAwareAlignsDataRegions(t *testing.T) {
	r := build(t, fig56Src)
	a, err := LayoutAware(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckIntraNest(r); err != nil {
		t.Fatal(err)
	}
	// Under §6.2, ownership follows the U region touched: L1's iteration
	// (0,0) touches U[0][0]; L2's iteration (63,0) touches U[0][0] too.
	// Both must run on the same processor.
	l1start := r.Space.NestFirst[0] // L1 (0,0)
	l2 := -1
	for id := r.Space.NestFirst[1]; id < r.Space.NestFirst[2]; id++ {
		it := r.Space.IterAt(id)
		if it.Iter[0] == 63 && it.Iter[1] == 0 {
			l2 = id
		}
	}
	if l2 < 0 {
		t.Fatal("L2 iteration (63,0) not found")
	}
	if a.Owner[l1start] != a.Owner[l2] {
		t.Errorf("iterations touching the same region must share a processor: %d vs %d",
			a.Owner[l1start], a.Owner[l2])
	}
	// And L2's (0,0) (touching U[63][0]) must be on the LAST processor's
	// region, unlike under loop parallelization.
	if a.Owner[r.Space.NestFirst[1]] != 3 {
		t.Errorf("L2 (0,0) owner = %d, want 3", a.Owner[r.Space.NestFirst[1]])
	}
}

// diskFootprint returns, per processor, the set of disks its iterations'
// primary references touch.
func diskFootprint(r *core.Restructurer, a *Assignment) []map[int]bool {
	fp := make([]map[int]bool, a.Procs)
	for p := range fp {
		fp[p] = map[int]bool{}
	}
	for id, p := range a.Owner {
		for _, d := range r.TouchedDisks(id) {
			fp[p][int(d)] = true
		}
	}
	return fp
}

func TestLayoutAwareShrinksDiskFootprint(t *testing.T) {
	// Row-block striping: stripe unit of 4K = 8 rows of 64 float64s...
	// actually one row = 512 B, so a stripe holds 8 rows; with factor 4,
	// processor regions of 16 rows map to 2 disks each under layout-aware
	// assignment, while loop parallelization mixes regions in L2.
	r := build(t, fig56Src)
	la, err := LayoutAware(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := LoopParallelize(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	fpLA := diskFootprint(r, la)
	fpLP := diskFootprint(r, lp)
	sum := func(fps []map[int]bool) int {
		total := 0
		for _, f := range fps {
			total += len(f)
		}
		return total
	}
	if sum(fpLA) > sum(fpLP) {
		t.Errorf("layout-aware footprint %d should not exceed loop-parallel footprint %d",
			sum(fpLA), sum(fpLP))
	}
}

func TestSequentialFallbackForSerialNest(t *testing.T) {
	// A wavefront nest with distances (1,0) and (0,1) has no
	// communication-free level: it must run sequentially on processor 0.
	r := build(t, `
array A[64][64] stripe(unit=4K, factor=4, start=0)
nest L {
  for i = 1 to 63 {
    for j = 1 to 63 {
      A[i][j] = A[i-1][j] + A[i][j-1];
    }
  }
}
`)
	a, err := LoopParallelize(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.ParallelLevel[0] != -1 {
		t.Errorf("level = %d, want -1", a.ParallelLevel[0])
	}
	for id, p := range a.Owner {
		if p != 0 {
			t.Fatalf("iteration %d owner = %d, want 0", id, p)
		}
	}
	if err := a.CheckIntraNest(r); err != nil {
		t.Fatal(err)
	}
	// Layout-aware must stay legal too (repair path).
	la, err := LayoutAware(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.CheckIntraNest(r); err != nil {
		t.Fatal(err)
	}
}

func TestInnerLevelParallelization(t *testing.T) {
	// Distance (1,0): level 0 carries it, but level 1 is communication-
	// free, so the inner loop is partitioned.
	r := build(t, `
array A[64][64] stripe(unit=4K, factor=4, start=0)
nest L {
  for i = 1 to 63 {
    for j = 0 to 63 {
      A[i][j] = A[i-1][j];
    }
  }
}
`)
	a, err := LoopParallelize(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.ParallelLevel[0] != 1 {
		t.Errorf("level = %d, want 1", a.ParallelLevel[0])
	}
	if err := a.CheckIntraNest(r); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetsPartition(t *testing.T) {
	r := build(t, fig56Src)
	a, err := LayoutAware(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs := a.Subsets()
	total := 0
	seen := make([]bool, r.Space.NumIterations())
	for _, sub := range subs {
		for _, id := range sub {
			if seen[id] {
				t.Fatalf("iteration %d in two subsets", id)
			}
			seen[id] = true
			total++
		}
		// program order within subset
		for i := 1; i < len(sub); i++ {
			if sub[i-1] >= sub[i] {
				t.Fatal("subset not in program order")
			}
		}
	}
	if total != r.Space.NumIterations() {
		t.Fatalf("subsets cover %d of %d", total, r.Space.NumIterations())
	}
}

func TestPerProcessorRestructuring(t *testing.T) {
	// End-to-end §6.2 + §5: partition, then disk-reuse schedule each
	// processor's subset; every subset schedule must be legal and
	// clustered.
	r := build(t, fig56Src)
	a, err := LayoutAware(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	for p, sub := range a.Subsets() {
		if len(sub) == 0 {
			continue
		}
		s, err := r.ScheduleFor(sub)
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
		st := core.Stats(s, r.Layout.NumDisks())
		if st.Iterations != len(sub) {
			t.Fatalf("proc %d scheduled %d of %d", p, st.Iterations, len(sub))
		}
	}
}

func TestSingleProcessorDegenerate(t *testing.T) {
	r := build(t, fig56Src)
	a, err := LayoutAware(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Owner {
		if p != 0 {
			t.Fatal("single processor must own everything")
		}
	}
	if _, err := LoopParallelize(r, 0); err == nil {
		t.Error("zero processors must fail")
	}
}

func TestBlockOwner(t *testing.T) {
	cases := []struct {
		v, lo, hi int64
		procs     int
		want      int
	}{
		{0, 0, 63, 4, 0},
		{15, 0, 63, 4, 0},
		{16, 0, 63, 4, 1},
		{63, 0, 63, 4, 3},
		{10, 10, 10, 4, 0},
		{5, 0, 2, 4, 3}, // clamped
	}
	for _, c := range cases {
		if got := blockOwner(c.v, c.lo, c.hi, c.procs); got != c.want {
			t.Errorf("blockOwner(%d,%d,%d,%d) = %d, want %d", c.v, c.lo, c.hi, c.procs, got, c.want)
		}
	}
}

// Property: over random programs and processor counts, both parallelizers
// always produce total, legal assignments: every iteration owned by exactly
// one processor in range, and no intra-nest dependence crossing processors.
func TestQuickAssignmentsAlwaysLegal(t *testing.T) {
	shapes := []string{
		`
array A[48][48] stripe(unit=4K, factor=4, start=0)
array B[48][48] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to 47 { for j = 0 to 47 { B[i][j] = A[i][j]; } } }
nest L2 { for i = 0 to 47 { for j = 0 to 47 { A[i][j] = B[j][i]; } } }
`,
		`
array A[64][64] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 1 to 62 { for j = 0 to 63 { A[i][j] = A[i-1][j]; } } }
nest L2 { for i = 0 to 63 { for j = 1 to 62 { A[i][j] = A[i][j-1]; } } }
`,
		`
array V[96] stripe(unit=4K, factor=3, start=0)
array M[96][96] stripe(unit=4K, factor=3, start=0)
nest L { for i = 0 to 95 { for j = 0 to 95 { V[i] = M[i][j] + V[i]; } } }
`,
	}
	for _, src := range shapes {
		r := build(t, src)
		for _, procs := range []int{1, 2, 3, 4, 7} {
			for _, mk := range []func(*core.Restructurer, int) (*Assignment, error){
				LoopParallelize, LayoutAware, DataSpacePartition,
			} {
				a, err := mk(r, procs)
				if err != nil {
					t.Fatalf("procs=%d: %v\n%s", procs, err, src)
				}
				if len(a.Owner) != r.Space.NumIterations() {
					t.Fatalf("assignment not total: %d of %d", len(a.Owner), r.Space.NumIterations())
				}
				for id, p := range a.Owner {
					if p < 0 || p >= procs {
						t.Fatalf("iteration %d owner %d outside 0..%d", id, p, procs-1)
					}
				}
				if err := a.CheckIntraNest(r); err != nil {
					t.Fatalf("procs=%d: %v\n%s", procs, err, src)
				}
			}
		}
	}
}

// Subsets lists each processor's ids in program order, carved with
// cap == len so a caller's append can never overwrite the next processor's
// list; a processor with no iterations gets nil.
func TestSubsetsShape(t *testing.T) {
	r := build(t, fig56Src)
	n := r.Space.NumIterations()
	a := &Assignment{Procs: 5, Owner: make([]int, n)}
	for id := range a.Owner {
		a.Owner[id] = (id / 7) % 4 // processor 4 owns nothing
	}
	subs := a.Subsets()
	loads := a.Loads()
	for p, sub := range subs {
		if loads[p] == 0 {
			if sub != nil {
				t.Fatalf("processor %d: empty subset %v is not nil", p, sub)
			}
			continue
		}
		if len(sub) != loads[p] || cap(sub) != len(sub) {
			t.Fatalf("processor %d: len %d cap %d, load %d", p, len(sub), cap(sub), loads[p])
		}
		for i, id := range sub {
			if a.Owner[id] != p || (i > 0 && id <= sub[i-1]) {
				t.Fatalf("processor %d: subset not its ids in program order at %d", p, i)
			}
		}
	}
}
