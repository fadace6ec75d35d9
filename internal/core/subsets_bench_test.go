package core_test

import (
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/par"
)

// BenchmarkScheduleForSubsets runs the per-(processor, nest) ScheduleFor
// calls the 4-processor experiment makes (§6.2): each processor's share of
// the loop-parallel and the layout-aware assignment, split at the nest
// barriers, restructured on its own.
func BenchmarkScheduleForSubsets(b *testing.B) {
	app, err := apps.ByName("RSense", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	p, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	r, err := core.New(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	const procs = 4
	var groups [][]int
	for _, assign := range []func(*core.Restructurer, int) (*par.Assignment, error){par.LoopParallelize, par.LayoutAware} {
		a, err := assign(r, procs)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range a.Subsets() {
			byNest := make([][]int, len(p.Nests))
			for _, id := range sub {
				k := r.Space.Nest(id)
				byNest[k] = append(byNest[k], id)
			}
			for _, g := range byNest {
				if len(g) > 0 {
					groups = append(groups, g)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range groups {
			if _, err := r.ScheduleFor(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}
