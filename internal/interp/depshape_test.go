package interp

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/sema"
)

// refBuildDeps is the straightforward serial dependence build the block
// carving replaced, kept as the oracle: element state in a map keyed by
// array, readers in a plain slice, and one append per edge into each
// iteration's own predecessor and successor lists.
func refBuildDeps(s *Space) *DepGraph {
	type refState struct {
		lastWriter int32
		readers    []int32
	}
	n := s.NumIterations()
	g := &DepGraph{Preds: make([][]int32, n), Succs: make([][]int32, n)}
	states := map[*sema.Array][]refState{}
	addEdge := func(from, to int32) {
		if from >= 0 && from != to {
			g.Preds[to] = append(g.Preds[to], from)
		}
	}
	var buf []Access
	for u := 0; u < n; u++ {
		buf = s.Accesses(u, buf[:0])
		for _, a := range buf {
			st, ok := states[a.Array]
			if !ok {
				st = make([]refState, a.Array.Elems())
				for i := range st {
					st[i].lastWriter = -1
				}
				states[a.Array] = st
			}
			es := &st[a.Lin]
			if a.Write {
				addEdge(es.lastWriter, int32(u))
				for _, r := range es.readers {
					addEdge(r, int32(u))
				}
				es.lastWriter = int32(u)
				es.readers = es.readers[:0]
			} else {
				addEdge(es.lastWriter, int32(u))
				if m := len(es.readers); m == 0 || es.readers[m-1] != int32(u) {
					es.readers = append(es.readers, int32(u))
				}
			}
		}
	}
	for u, ps := range g.Preds {
		if len(ps) == 0 {
			continue
		}
		slices.Sort(ps)
		ps = slices.Compact(ps)
		g.Preds[u] = ps
		g.edges += len(ps)
		for _, p := range ps {
			g.Succs[p] = append(g.Succs[p], int32(u))
		}
	}
	return g
}

// Both dependence builds produce exactly the oracle's edges, list by list.
func TestBuildDepsMatchesReference(t *testing.T) {
	defer func(v int) { depCrossover = v }(depCrossover)
	depCrossover = 1 // force the sharded path even on tiny spaces

	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		src := randomSource(rng)
		s := space(t, src)
		want := refBuildDeps(s)
		got := map[string]*DepGraph{"serial": s.BuildDeps()}
		var err error
		if got["sharded"], err = s.BuildDepsCtx(ctx, 4); err != nil {
			t.Fatal(err)
		}
		for name, g := range got {
			if g.NumEdges() != want.NumEdges() {
				t.Fatalf("trial %d %s: %d edges, want %d\nsource:\n%s", trial, name, g.NumEdges(), want.NumEdges(), src)
			}
			for u := range want.Preds {
				if !slices.Equal(g.Preds[u], want.Preds[u]) || !slices.Equal(g.Succs[u], want.Succs[u]) {
					t.Fatalf("trial %d %s: iteration %d preds %v succs %v, want %v %v\nsource:\n%s",
						trial, name, u, g.Preds[u], g.Succs[u], want.Preds[u], want.Succs[u], src)
				}
			}
		}
	}
}

// checkListShape asserts the DepGraph contract every consumer relies on:
// every list is strictly ascending (sorted, duplicate-free), an empty list
// is nil, every list has cap == len so a caller's append can never
// overwrite a neighbour carved from the same block, Succs is exactly the
// transpose of Preds, and the edge count matches.
func checkListShape(t *testing.T, name string, g *DepGraph) {
	t.Helper()
	n := len(g.Preds)
	if len(g.Succs) != n {
		t.Fatalf("%s: %d succ lists for %d iterations", name, len(g.Succs), n)
	}
	edges := 0
	outdeg := make([]int, n)
	for _, lists := range [][][]int32{g.Preds, g.Succs} {
		for u, l := range lists {
			if l != nil && len(l) == 0 {
				t.Fatalf("%s: iteration %d has an empty non-nil list", name, u)
			}
			if cap(l) != len(l) {
				t.Fatalf("%s: iteration %d list has cap %d, len %d", name, u, cap(l), len(l))
			}
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Fatalf("%s: iteration %d list %v not strictly ascending", name, u, l)
				}
			}
		}
	}
	for u, ps := range g.Preds {
		edges += len(ps)
		for _, p := range ps {
			if int(p) >= u {
				t.Fatalf("%s: edge %d -> %d points backward", name, p, u)
			}
			if _, ok := slices.BinarySearch(g.Succs[p], int32(u)); !ok {
				t.Fatalf("%s: edge %d -> %d missing from Succs[%d]", name, p, u, p)
			}
			outdeg[p]++
		}
	}
	for p, ss := range g.Succs {
		if len(ss) != outdeg[p] {
			t.Fatalf("%s: Succs[%d] = %v has %d entries, Preds name it %d times", name, p, ss, len(ss), outdeg[p])
		}
	}
	if edges != g.NumEdges() {
		t.Fatalf("%s: NumEdges %d, lists hold %d", name, g.NumEdges(), edges)
	}
}

func TestDepGraphListShape(t *testing.T) {
	defer func(v int) { depCrossover = v }(depCrossover)
	depCrossover = 1

	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	srcs := []string{`
array A[64]
nest L { for i = 1 to 63 { A[i] = A[i-1]; } }
nest R { for i = 0 to 63 { read A[0]; } }
nest W { for i = 0 to 63 { A[0] = A[i]; } }
`}
	for trial := 0; trial < 20; trial++ {
		srcs = append(srcs, randomSource(rng))
	}
	for _, src := range srcs {
		s := space(t, src)
		checkListShape(t, "serial", s.BuildDeps())
		g, err := s.BuildDepsCtx(ctx, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkListShape(t, "sharded", g)
	}
}

// A predecessor list longer than a whole block gets a block of its own.
func TestBuildDepsOversizedList(t *testing.T) {
	s := space(t, `
array A[40000]
nest R { for i = 0 to 39999 { read A[0]; } }
nest W { for i = 0 to 0 { A[0] = A[1]; } }
`)
	g := s.BuildDeps()
	checkListShape(t, "serial", g)
	if got := len(g.Preds[40000]); got != 40000 || got <= predBlock {
		t.Fatalf("writer has %d predecessors, want 40000 (> block size %d)", got, predBlock)
	}
	if !reflect.DeepEqual(g, refBuildDeps(s)) {
		t.Fatal("graph differs from the reference build")
	}
}

// The serial build allocates per block and per array, not per edge or per
// iteration: on RSense it stays far below one allocation per iteration.
func TestBuildDepsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	app, err := apps.ByName("RSense", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSpace(p)
	if err != nil {
		t.Fatal(err)
	}
	n := s.NumIterations()
	allocs := testing.AllocsPerRun(3, func() { s.BuildDeps() })
	t.Logf("BuildDeps: %.0f allocations for %d iterations", allocs, n)
	if allocs >= float64(n)/2 {
		t.Errorf("BuildDeps made %.0f allocations for %d iterations, want < %d", allocs, n, n/2)
	}
}
