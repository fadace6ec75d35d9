package core

import (
	"math/rand"
	"strings"
	"testing"

	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
)

func build(t *testing.T, src string) *Restructurer {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Two nests over one striped array with a producer/consumer dependence.
// The restructurer can still achieve perfect disk reuse by scheduling, per
// disk, the producer iterations before the consumer iterations.
const producerConsumerSrc = `
array A[4096] stripe(unit=4K, factor=4, start=0)
array B[4096] stripe(unit=4K, factor=4, start=0)
nest W { for i = 0 to 4095 { A[i] = B[i]; } }
nest R { for i = 0 to 4095 { B[i] = A[i]; } }
`

func TestPerfectReuseProducerConsumer(t *testing.T) {
	r := build(t, producerConsumerSrc)
	orig := r.OriginalSchedule()
	origStats := Stats(orig, r.Layout.NumDisks())
	// Original order sweeps the stripes in file order twice: 16 runs.
	if origStats.Runs != 16 {
		t.Errorf("original runs = %d, want 16\n%s", origStats.Runs, origStats)
	}

	s, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(s); err != nil {
		t.Fatalf("restructured schedule illegal: %v", err)
	}
	st := Stats(s, r.Layout.NumDisks())
	if !st.PerfectReuse {
		t.Errorf("expected perfect reuse, got %s", st)
	}
	if st.Runs != 4 {
		t.Errorf("runs = %d, want 4 (one visit per disk)", st.Runs)
	}
	if st.AvgRunLen <= origStats.AvgRunLen {
		t.Errorf("restructuring did not lengthen runs: %v vs %v", st.AvgRunLen, origStats.AvgRunLen)
	}
}

func TestChainForcesOriginalOrder(t *testing.T) {
	// A full dependence chain leaves no freedom: the schedule must be the
	// original order, revisiting disks as the data marches across stripes.
	r := build(t, `
array A[4096] stripe(unit=4K, factor=4, start=0)
nest L { for i = 1 to 4095 { A[i] = A[i-1]; } }
`)
	s, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(s); err != nil {
		t.Fatal(err)
	}
	for k, id := range s.Order {
		if id != k {
			t.Fatalf("chain schedule must be program order; position %d = %d", k, id)
		}
	}
	st := Stats(s, r.Layout.NumDisks())
	if st.PerfectReuse {
		t.Error("chain across stripes cannot have perfect reuse")
	}
}

func TestFigure4StyleRevisit(t *testing.T) {
	// Mirrors the structure of Fig. 4: most iterations are free, but a few
	// dependences force some disk-0 iterations to wait for disk-1
	// iterations, so disk 0 is visited twice (the while-loop of Fig. 3).
	//
	// Layout: A has 4 stripes on 4 disks, 512 elems each. Nest P writes
	// B-elements on disk 1. Nest C's iterations 0..511 (disk 0 via A) read
	// those B elements written by P, creating disk1 -> disk0 dependences
	// for some iterations.
	r := build(t, `
array A[2048] stripe(unit=4K, factor=4, start=0)
array B[2048] stripe(unit=4K, factor=4, start=0)
nest P { for i = 512 to 1023 { B[i] = A[i]; } }
nest C { for i = 0 to 511 { A[i] = B[i+512]; } }
nest D { for i = 1024 to 2047 { A[i] = B[i]; } }
`)
	s, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(s); err != nil {
		t.Fatal(err)
	}
	st := Stats(s, r.Layout.NumDisks())
	// Disk 0 hosts C's iterations (A[0..511] stripe 0) but every one of
	// them depends on P (disk 1, since both A[i] and B[i] for i in
	// 512..1023 are on stripe 1 = disk 1). So the first visit to disk 0
	// schedules nothing, disk 1 runs P, then disk 0 runs C on the second
	// round: disk 0's cluster appears after disk 1's.
	if st.PerfectReuse {
		// With the queue-draining scheduler the empty first visit does not
		// produce a run, so "perfect reuse" can still hold; the essential
		// property is legality plus clustering. Accept but require few runs.
		if st.Runs > 4 {
			t.Errorf("unexpected run count %d", st.Runs)
		}
	}
	// C (global ids 512..1023) must come after all of P (ids 0..511).
	pos := make([]int, len(s.Order))
	for p, id := range s.Order {
		pos[id] = p
	}
	maxP, minC := 0, len(s.Order)
	for id := 0; id < 512; id++ {
		if pos[id] > maxP {
			maxP = pos[id]
		}
	}
	for id := 512; id < 1024; id++ {
		if pos[id] < minC {
			minC = pos[id]
		}
	}
	if maxP > minC {
		t.Errorf("consumer scheduled before producer: maxP=%d minC=%d", maxP, minC)
	}
}

func TestScheduleForSubset(t *testing.T) {
	r := build(t, producerConsumerSrc)
	// Subset: the first half of each nest (ids 0..2047 and 4096..6143).
	var subset []int
	for i := 0; i < 2048; i++ {
		subset = append(subset, i)
	}
	for i := 4096; i < 6144; i++ {
		subset = append(subset, i)
	}
	s, err := r.ScheduleFor(subset)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(subset) {
		t.Fatalf("scheduled %d, want %d", s.Len(), len(subset))
	}
	seen := map[int]bool{}
	for _, id := range s.Order {
		if seen[id] {
			t.Fatalf("iteration %d scheduled twice", id)
		}
		seen[id] = true
	}
	for _, id := range subset {
		if !seen[id] {
			t.Fatalf("iteration %d missing", id)
		}
	}
	// Within-subset dependences respected: R's half (4096+i) after W's (i).
	pos := map[int]int{}
	for p, id := range s.Order {
		pos[id] = p
	}
	for i := 0; i < 2048; i++ {
		if pos[4096+i] < pos[i] {
			t.Fatalf("subset dependence violated for i=%d", i)
		}
	}

	if _, err := r.ScheduleFor([]int{0, 0}); err == nil {
		t.Error("duplicate subset ids must fail")
	}
	if _, err := r.ScheduleFor([]int{-1}); err == nil {
		t.Error("out-of-range subset ids must fail")
	}
}

func TestPrimaryAndTouchedDisks(t *testing.T) {
	r := build(t, `
array A[1024] stripe(unit=4K, factor=2, start=0)
array B[1024] stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 511 { A[i] = B[i+512]; } }
`)
	// Iteration 0 reads B[512] (stripe 1 -> disk 1) and writes A[0]
	// (stripe 0 -> disk 0). Primary = first access = the read (disk 1).
	if d := r.PrimaryDisk(0); d != 1 {
		t.Errorf("primary disk = %d, want 1", d)
	}
	ds := r.TouchedDisks(0)
	if len(ds) != 2 {
		t.Errorf("touched = %v", ds)
	}
}

// Property: for random programs, the disk-reuse schedule is always a legal
// permutation and never clusters worse than... (it can tie the original in
// fully-constrained cases, so only legality and permutation are asserted,
// plus non-regression on run count for dependence-free programs).
func TestQuickRandomProgramsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := []string{
		`
array A[%d] stripe(unit=4K, factor=4, start=0)
array B[%d] stripe(unit=4K, factor=4, start=0)
nest L1 { for i = 0 to %d { A[i] = B[i]; } }
nest L2 { for i = 1 to %d { B[i] = A[i-1] + B[i-1]; } }
`,
		`
array A[%d] stripe(unit=4K, factor=3, start=0)
array B[%d] stripe(unit=4K, factor=3, start=0)
nest L1 { for i = 0 to %d { B[i] = A[i]; } }
nest L2 { for i = 0 to %d { A[i] = B[i]; } }
`,
	}
	for trial := 0; trial < 6; trial++ {
		n := 1024 + 512*rng.Intn(3)
		shape := shapes[rng.Intn(len(shapes))]
		src := sprintfN(shape, n, n, n-1, n-1)
		r := build(t, src)
		s, err := r.DiskReuseSchedule()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.Verify(s); err != nil {
			t.Fatalf("trial %d: %v\nprogram:\n%s", trial, err, src)
		}
	}
}

func sprintfN(format string, args ...int) string {
	out := format
	for _, a := range args {
		out = strings.Replace(out, "%d", itoa(a), 1)
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestCodegenPartitionsIterationSpace(t *testing.T) {
	r := build(t, `
array A[64][64] stripe(unit=4K, factor=4, start=0)
nest L {
  for i = 0 to 63 {
    for j = 0 to 63 {
      A[i][j] = A[i][j];
    }
  }
}
`)
	n := r.Prog.Nests[0]
	total := 0
	seen := map[string]int{}
	for d := 0; d < r.Layout.NumDisks(); d++ {
		g, err := r.CodegenNestOnDisk(n, d)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			continue
		}
		for _, p := range g.Points() {
			// p = (ss, i, j); drop the stripe coordinate.
			key := p[1:].String()
			seen[key]++
			total++
			// The generated set must agree with the scheduler's disk
			// attribution: find the iteration's global id (nest has 64x64
			// iterations in row-major order).
			id := int(p[1]*64 + p[2])
			if r.PrimaryDisk(id) != d {
				t.Fatalf("codegen assigned (%d,%d) to disk %d but primary is %d",
					p[1], p[2], d, r.PrimaryDisk(id))
			}
		}
	}
	if total != 64*64 {
		t.Fatalf("codegen covered %d iterations, want %d", total, 64*64)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %s generated %d times", k, c)
		}
	}
}

func TestRestructuredPseudoCode(t *testing.T) {
	r := build(t, producerConsumerSrc)
	code, err := r.RestructuredPseudoCode()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"disk0", "disk3", "nest W", "nest R", "for ss", "step 4"} {
		if !strings.Contains(code, want) {
			t.Errorf("pseudo-code missing %q:\n%s", want, code)
		}
	}
}

func TestCodegenRejectsNonUnitStep(t *testing.T) {
	r := build(t, `
array A[128] stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 127 step 2 { read A[i]; } }
`)
	if _, err := r.CodegenNestOnDisk(r.Prog.Nests[0], 0); err == nil {
		t.Error("non-unit step must be rejected by codegen")
	}
	// But scheduling still works.
	s, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	r := build(t, producerConsumerSrc)
	s, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := Stats(s, 4).String(); !strings.Contains(got, "perfect=true") {
		t.Errorf("Stats string = %q", got)
	}
}

func TestValidateRejectsOOB(t *testing.T) {
	prog, err := parser.Parse(`
array A[4] stripe(unit=4K, factor=2, start=0)
nest L { for i = 0 to 7 { read A[i]; } }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sema.Analyze(prog, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, nil); err == nil {
		t.Error("out-of-bounds program must be rejected")
	}
}

// Golden test: the exact Fig. 2(c)-shaped output for a small two-nest
// program over four disks. Guards the codegen text against regressions.
func TestCodegenGolden(t *testing.T) {
	r := build(t, `
array A[4096] stripe(unit=4K, factor=4, start=0)
nest Fwd { for i = 0 to 4095 { A[i] = A[i]; } }
`)
	code, err := r.RestructuredPseudoCode()
	if err != nil {
		t.Fatal(err)
	}
	const golden = `// ---- iterations accessing disk0 ----
// from nest Fwd:
for ss = 0 to 7 step 4 {
  for i = max(0, 512*ss) to min(4095, 512*ss + 511) {
    <body>
  }
}
// ---- iterations accessing disk1 ----
// from nest Fwd:
for ss = 1 to 7 step 4 {
  for i = max(0, 512*ss) to min(4095, 512*ss + 511) {
    <body>
  }
}
// ---- iterations accessing disk2 ----
// from nest Fwd:
for ss = 2 to 7 step 4 {
  for i = max(0, 512*ss) to min(4095, 512*ss + 511) {
    <body>
  }
}
// ---- iterations accessing disk3 ----
// from nest Fwd:
for ss = 3 to 7 step 4 {
  for i = max(0, 512*ss) to min(4095, 512*ss + 511) {
    <body>
  }
}
`
	if code != golden {
		t.Errorf("codegen output changed:\n--- got ---\n%s\n--- want ---\n%s", code, golden)
	}
}

// TestFigure4Exact replays the paper's Fig. 4 walk-through directly on the
// Fig. 3 scheduler: 13 iterations over 4 disks, with dependences from
// iterations 2, 6, and 10 to iterations 9, 7, and 12 (1-indexed, as in the
// figure). The algorithm schedules disk 0's free iterations (1 -> 3),
// moves to disk 1 (2 -> 6 -> 10) instead of waiting for 9, 7, 12, covers
// disks 2 and 3, and only then revisits disk 0 for the now-released
// iterations — the while-loop of Fig. 3 in action.
func TestFigure4Exact(t *testing.T) {
	// Disk assignment (1-indexed iterations):
	//   disk 0: 1, 3, 7, 9, 12    disk 1: 2, 6, 10
	//   disk 2: 4, 8, 13          disk 3: 5, 11
	diskOf := map[int]int{
		1: 0, 3: 0, 7: 0, 9: 0, 12: 0,
		2: 1, 6: 1, 10: 1,
		4: 2, 8: 2, 13: 2,
		5: 3, 11: 3,
	}
	deps := map[int][]int{9: {2}, 7: {6}, 12: {10}} // dst -> srcs
	members := make([]int, 0, 13)
	inSet := make([]bool, 14)
	for id := 1; id <= 13; id++ {
		members = append(members, id)
		inSet[id] = true
	}
	succs := make([][]int32, 14)
	preds := make([][]int32, 14)
	primary := make([]int, 14)
	for id, d := range diskOf {
		primary[id] = d
	}
	for dst, srcs := range deps {
		for _, src := range srcs {
			preds[dst] = append(preds[dst], int32(src))
			succs[src] = append(succs[src], int32(dst))
		}
	}
	order, disks, err := scheduleFig3(4, members, inSet, 0, primary, preds, succs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 2, 6, 10, 4, 8, 13, 5, 11, 7, 9, 12}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Disk visit sequence: 0, 1, 2, 3, then 0 again — disk 0 revisited
	// exactly once, as the figure narrates.
	visits := []int{}
	prev := -1
	for _, d := range disks {
		if d != prev {
			visits = append(visits, d)
			prev = d
		}
	}
	wantVisits := []int{0, 1, 2, 3, 0}
	if len(visits) != len(wantVisits) {
		t.Fatalf("visits = %v", visits)
	}
	for i := range wantVisits {
		if visits[i] != wantVisits[i] {
			t.Fatalf("visits = %v, want %v", visits, wantVisits)
		}
	}
}
