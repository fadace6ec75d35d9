package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"diskreuse/internal/interp"
)

// refIDHeap and refScheduleFig3 are the whole-space scheduler the span-sized
// one replaced, kept as the oracle: membership and in-degrees are indexed
// by global id over the whole space, and each disk's ready queue is a plain
// min-heap.
type refIDHeap []int

func (h *refIDHeap) push(id int) {
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

func (h *refIDHeap) pop() int {
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

func refScheduleFig3(numDisks int, members []int, inSet []bool,
	primary []int, preds, succs [][]int32) (order, disks []int, err error) {

	indeg := make([]int, len(inSet))
	for _, id := range members {
		for _, p := range preds[id] {
			if inSet[p] {
				indeg[id]++
			}
		}
	}
	queues := make([]refIDHeap, numDisks)
	pending := 0
	for _, id := range members {
		if indeg[id] == 0 {
			queues[primary[id]].push(id)
		}
		pending++
	}
	order = make([]int, 0, len(members))
	disks = make([]int, 0, len(members))
	d := 0
	idleRounds := 0
	for pending > 0 {
		if len(queues[d]) == 0 {
			d = (d + 1) % numDisks
			idleRounds++
			if idleRounds > numDisks {
				return nil, nil, fmt.Errorf("core: scheduling stuck with %d iterations pending (cross-subset dependence?)", pending)
			}
			continue
		}
		idleRounds = 0
		for len(queues[d]) > 0 {
			id := queues[d].pop()
			order = append(order, id)
			disks = append(disks, d)
			pending--
			for _, v := range succs[id] {
				if !inSet[v] {
					continue
				}
				indeg[v]--
				if indeg[v] == 0 {
					queues[primary[v]].push(int(v))
				}
			}
		}
		d = (d + 1) % numDisks
	}
	return order, disks, nil
}

// refSchedule runs the oracle over subset (nil means all n iterations).
func refSchedule(n, numDisks int, primary []int, g *interp.DepGraph, subset []int) (order, disks []int, err error) {
	inSet := make([]bool, n)
	members := subset
	if subset == nil {
		members = make([]int, n)
		for i := range members {
			members[i] = i
		}
	}
	for _, id := range members {
		inSet[id] = true
	}
	return refScheduleFig3(numDisks, members, inSet, primary, g.Preds, g.Succs)
}

// linearSpace builds a Restructurer over one dependence-free n-iteration
// nest striped over 4 disks.
func linearSpace(t *testing.T, n int) *Restructurer {
	t.Helper()
	return build(t, fmt.Sprintf(`
array A[%d] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to %d { read A[i]; } }
`, n, n-1))
}

// randomDAG returns an n-iteration dependence graph whose edges point
// forward: a few short-range and a few long-range predecessors each, so a
// subset's edges leave its id span at both ends.
func randomDAG(rng *rand.Rand, n int) *interp.DepGraph {
	g := &interp.DepGraph{Preds: make([][]int32, n), Succs: make([][]int32, n)}
	for u := 1; u < n; u++ {
		var ps []int32
		for k := rng.Intn(4); k > 0; k-- {
			if rng.Intn(3) == 0 {
				ps = append(ps, int32(rng.Intn(u)))
			} else {
				ps = append(ps, int32(max(0, u-1-rng.Intn(8))))
			}
		}
		slices.Sort(ps)
		g.Preds[u] = slices.Compact(ps)
		for _, p := range g.Preds[u] {
			g.Succs[p] = append(g.Succs[p], int32(u))
		}
	}
	return g
}

// Property: the span-sized scheduler with its ready queues reproduces the
// whole-space heap scheduler exactly — Order and Disk — on random DAGs,
// for the whole space and for unsorted subsets whose edges leave the span
// at both ends, through both ScheduleFor and ScheduleSubsetWithPrimary.
func TestScheduleMatchesWholeSpaceReference(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(42))
	r := linearSpace(t, n)
	nd := r.Layout.NumDisks()
	for trial := 0; trial < 30; trial++ {
		r.Graph = randomDAG(rng, n)
		for id := range r.primary {
			r.primary[id] = rng.Intn(nd)
		}
		alt := make([]int, n)
		for id := range alt {
			alt[id] = rng.Intn(3)
		}
		lo := rng.Intn(n / 2)
		hi := lo + 50 + rng.Intn(n/2-50)
		var subset []int
		for id := lo; id <= hi; id++ {
			if rng.Intn(5) < 3 {
				subset = append(subset, id)
			}
		}
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		below, above := false, false
		for _, id := range subset {
			for _, p := range r.Graph.Preds[id] {
				below = below || int(p) < lo
			}
			for _, v := range r.Graph.Succs[id] {
				above = above || int(v) > hi
			}
		}
		if !below || !above {
			t.Fatalf("trial %d: subset edges do not leave the span at both ends", trial)
		}
		for _, sub := range [][]int{nil, subset} {
			check := func(name string, numDisks int, primary []int, got *Schedule, err error) {
				t.Helper()
				wantOrder, wantDisk, wantErr := refSchedule(n, numDisks, primary, r.Graph, sub)
				if err != nil || wantErr != nil {
					t.Fatalf("trial %d %s: err %v, reference err %v", trial, name, err, wantErr)
				}
				if !slices.Equal(got.Order, wantOrder) || !slices.Equal(got.Disk, wantDisk) {
					t.Fatalf("trial %d %s (subset %v): schedule differs from the reference\ngot  %v\nwant %v",
						trial, name, sub != nil, got.Order, wantOrder)
				}
			}
			s, err := r.ScheduleFor(sub)
			check("ScheduleFor", nd, r.primary, s, err)
			s, err = r.ScheduleSubsetWithPrimary(3, alt, sub)
			check("ScheduleSubsetWithPrimary", 3, alt, s, err)
		}
	}
}

// Property: the ready queue pops exactly the heap's sequence over random
// interleaved pushes and pops, including pushes below the run's tail.
func TestReadyQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		// Mostly ascending unique ids, with some pulled far ahead or held
		// back so pushes land both above and below the run's tail.
		m := 1 + rng.Intn(400)
		ids := rng.Perm(m)
		slices.Sort(ids)
		for i := range ids {
			if rng.Intn(4) == 0 {
				j := rng.Intn(m)
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		var q readyQueue
		var ref refIDHeap
		belowTail := 0
		next := 0
		for next < m || q.len() > 0 {
			if next < m && (q.len() == 0 || rng.Intn(5) < 3) {
				if n := len(q.run); n > q.head && ids[next] < q.run[n-1] {
					belowTail++
				}
				q.push(ids[next])
				ref.push(ids[next])
				next++
			} else if got, want := q.pop(), ref.pop(); got != want {
				t.Fatalf("trial %d: pop %d, heap pops %d", trial, got, want)
			}
			if q.len() != len(ref) {
				t.Fatalf("trial %d: len %d, heap len %d", trial, q.len(), len(ref))
			}
		}
		if m > 100 && belowTail == 0 {
			t.Fatalf("trial %d: no push fell below the run's tail", trial)
		}
	}
}

// Subset validation reports the first offending id in subset order with
// the same text through both entry points.
func TestSubsetErrors(t *testing.T) {
	r := build(t, producerConsumerSrc)
	n := r.Space.NumIterations()
	for _, tc := range []struct {
		subset []int
		want   string
	}{
		{[]int{5, n}, fmt.Sprintf("core: subset id %d out of range", n)},
		{[]int{-1}, "core: subset id -1 out of range"},
		{[]int{3, 1, 3}, "core: subset id 3 duplicated"},
		{[]int{2, 7, 2, -4}, "core: subset id 2 duplicated"},
		{[]int{2, n + 9, 2}, fmt.Sprintf("core: subset id %d out of range", n+9)},
	} {
		_, err := r.ScheduleFor(tc.subset)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ScheduleFor(%v): error %v, want %q", tc.subset, err, tc.want)
		}
		_, err = r.ScheduleSubsetWithPrimary(r.Layout.NumDisks(), r.primary, tc.subset)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ScheduleSubsetWithPrimary(%v): error %v, want %q", tc.subset, err, tc.want)
		}
	}
	if s, err := r.ScheduleFor([]int{}); err != nil || s.Len() != 0 {
		t.Errorf("empty subset: %v, %v", s, err)
	}
}

// TouchedDisks lists are distinct, non-empty and carved with cap == len,
// so a caller's append can never overwrite a neighbour's list.
func TestTouchedDisksShape(t *testing.T) {
	r := build(t, `
array A[4096] stripe(unit=4K, factor=4, start=0)
array B[4096] stripe(unit=4K, factor=4, start=0)
nest L { for i = 0 to 2047 { A[i] = B[i+2048] + A[i+1024]; } }
`)
	for id := 0; id < r.Space.NumIterations(); id++ {
		ds := r.TouchedDisks(id)
		if len(ds) == 0 || cap(ds) != len(ds) {
			t.Fatalf("iteration %d: touched %v has len %d cap %d", id, ds, len(ds), cap(ds))
		}
		if ds[0] != int8(r.PrimaryDisk(id)) {
			t.Fatalf("iteration %d: touched %v does not start with primary %d", id, ds, r.PrimaryDisk(id))
		}
		for i := range ds {
			if slices.Contains(ds[:i], ds[i]) {
				t.Fatalf("iteration %d: touched %v repeats a disk", id, ds)
			}
		}
	}
}

// The subset scheduler's scratch is sized to the subset's span: the bytes
// ScheduleFor allocates for the same subset do not grow with the space.
func TestScheduleForBytesIndependentOfSpace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	subset := make([]int, 0, 1024)
	for id := 1024; id < 2048; id++ {
		subset = append(subset, id)
	}
	bytesFor := func(n int) uint64 {
		r := linearSpace(t, n)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := r.ScheduleFor(subset); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesFor(4096), bytesFor(4*4096)
	t.Logf("ScheduleFor on %d members: %d B in a 4096-iteration space, %d B in a 16384-iteration one",
		len(subset), small, large)
	if large > small+small/8 {
		t.Errorf("ScheduleFor allocated %d B in the 4x space, %d B in the small one", large, small)
	}
}
