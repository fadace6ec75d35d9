package exp

import (
	"context"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/layout"
	"diskreuse/internal/trace"
)

// TestGeneratedTracesExactSize pins the memory shape of every generated
// trace: for each Small application at 1P and 4P, trace.Generate returns
// each execution's requests with cap == len, so no over-allocated tail is
// retained, and the prepared artifacts hold that slice itself — TraceFor
// and the prepared trace share one exact-size copy per execution.
func TestGeneratedTracesExactSize(t *testing.T) {
	for _, a := range apps.Suite(apps.Small) {
		p, err := a.Compile()
		if err != nil {
			t.Fatal(err)
		}
		lay, err := layout.New(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			r, err := core.New(p, lay)
			if err != nil {
				t.Fatal(err)
			}
			orig, restrS, restrM, err := prepare(r, procs)
			if err != nil {
				t.Fatal(err)
			}
			for k, e := range []*execution{orig, restrS, restrM} {
				if e == nil {
					continue
				}
				reqs, err := trace.Generate(r, e.phases, trace.GenConfig{ComputePerIter: a.ComputePerIter})
				if err != nil {
					t.Fatal(err)
				}
				if len(reqs) == 0 || cap(reqs) != len(reqs) {
					t.Errorf("%s %dP execution %d: Generate returned len %d cap %d", a.Name, procs, k, len(reqs), cap(reqs))
				}
			}

			art, err := PrepareApp(context.Background(), a, Options{Size: apps.Small, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range VersionsFor(procs) {
				e := art.execOf(v)
				if e == nil {
					continue
				}
				got := art.TraceFor(v)
				if cap(got) != len(got) || &got[0] != &e.prep.Sorted()[0] {
					t.Errorf("%s %dP %s: TraceFor len %d cap %d, not the prepared exact-size trace", a.Name, procs, v, len(got), cap(got))
				}
			}
		}
	}
}
