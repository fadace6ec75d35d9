package trace

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/core"
	"diskreuse/internal/interp"
	"diskreuse/internal/sema"
)

func benchProgram(b testing.TB) *sema.Program {
	b.Helper()
	app, err := apps.ByName("RSense", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	p, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchRestructurer(b testing.TB, e interp.Engine) *core.Restructurer {
	b.Helper()
	r, err := core.NewCtx(context.Background(), benchProgram(b), nil, core.Options{Jobs: 0, Engine: e})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// nestBlockPhases splits each nest's iterations, in program order, into
// procs contiguous blocks, one per processor, with a barrier per nest.
func nestBlockPhases(r *core.Restructurer, procs int) []Phase {
	perProc := make([][]int, procs)
	for k, lo := range r.Space.NestFirst {
		hi := r.Space.NumIterations()
		if k+1 < len(r.Space.NestFirst) {
			hi = r.Space.NestFirst[k+1]
		}
		for id := lo; id < hi; id++ {
			p := (id - lo) * procs / (hi - lo)
			perProc[p] = append(perProc[p], id)
		}
	}
	return NestPhases(r.Space, perProc, len(r.Prog.Nests))
}

// BenchmarkGenerateTrace measures the page-coalescing trace generation
// loop under both engines: the compiled path streams linear indices off
// stride tables and maps pages with precomputed per-array tables; the
// interp path is the per-access Accesses/ElemPage reference loop. The -4P
// cases run four processors with a barrier per nest, so the compiled
// path's per-phase merge and the interp path's stable sort both do work.
func BenchmarkGenerateTrace(b *testing.B) {
	for _, e := range []interp.Engine{interp.EngineCompiled, interp.EngineInterp} {
		for _, procs := range []int{1, 4} {
			name := e.String()
			if procs > 1 {
				name = fmt.Sprintf("%s-%dP", name, procs)
			}
			b.Run(name, func(b *testing.B) {
				r := benchRestructurer(b, e)
				phases := SinglePhase(r.OriginalSchedule())
				if procs > 1 {
					phases = nestBlockPhases(r, procs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Generate(r, phases, GenConfig{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCompiledEngineFaster is the CI bench smoke for the compiled engine:
// the full front end plus trace generation on apps.Small must be faster
// compiled than tree-walked, with margin. It measures medians of three
// runs so one scheduler hiccup cannot flake the suite, and it double-
// checks that the two engines emit identical traces before comparing
// clocks.
func TestCompiledEngineFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	p := benchProgram(t)
	run := func(e interp.Engine) (time.Duration, []Request) {
		start := time.Now()
		r, err := core.NewCtx(context.Background(), p, nil, core.Options{Jobs: 1, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := Generate(r, SinglePhase(r.OriginalSchedule()), GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), reqs
	}
	median := func(e interp.Engine) (time.Duration, []Request) {
		var ds []time.Duration
		var reqs []Request
		for i := 0; i < 3; i++ {
			d, r := run(e)
			ds = append(ds, d)
			reqs = r
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[1], reqs
	}
	compiled, creqs := median(interp.EngineCompiled)
	interpD, ireqs := median(interp.EngineInterp)
	if len(creqs) != len(ireqs) {
		t.Fatalf("engines disagree: %d vs %d requests", len(creqs), len(ireqs))
	}
	for i := range creqs {
		if creqs[i] != ireqs[i] {
			t.Fatalf("request %d differs: compiled %+v, interp %+v", i, creqs[i], ireqs[i])
		}
	}
	if compiled*12/10 >= interpD {
		t.Errorf("compiled engine not faster with margin: compiled %v, interp %v", compiled, interpD)
	}
	t.Logf("front end + trace on apps.Small: compiled %v, interp %v (%.1fx)",
		compiled, interpD, float64(interpD)/float64(compiled))
}
