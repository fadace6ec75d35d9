package layoutopt

import (
	"runtime"
	"testing"
	"time"

	"diskreuse/internal/apps"
)

// benchApp builds the FFT Small engine once per benchmark.
func benchApp(b *testing.B) (apps.App, *Engine) {
	b.Helper()
	a, err := apps.ByName("fft", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	return a, e
}

// BenchmarkEvaluateFull is the baseline the engine is measured against: the
// full compile→restructure→generate→simulate pipeline per candidate.
func BenchmarkEvaluateFull(b *testing.B) {
	a, _ := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(a, Candidate{Unit: 64 << 10, Factor: 4, Start: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdSchedule scores candidates whose schedules are all new:
// every iteration re-derives the primary vector, reruns the Fig. 3
// scheduler, regenerates the abstract trace, and replays both policies.
func BenchmarkEngineColdSchedule(b *testing.B) {
	_, e := benchApp(b)
	n := e.NumArrays()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct stripe units (any page multiple) make distinct schedules.
		u := int64(16<<10) + int64(i)*e.pageSize
		if _, err := e.ScoreLite(WholeProgram, Uniform(n, Candidate{Unit: u, Factor: 4, Start: 0})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReattributed is the hot path the tentpole names: candidates
// that share a memoized schedule (only non-primary arrays' specs change), so
// scoring is re-attribution plus two cached per-disk replays.
func BenchmarkEngineReattributed(b *testing.B) {
	a, err := apps.ByName("scf", apps.Small)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	free := -1
	for i, in := range e.firstIn[0] {
		if !in {
			free = i
			break
		}
	}
	if free < 0 {
		b.Fatal("no non-primary array to vary")
	}
	base := Uniform(e.NumArrays(), Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := base.Clone()
		specs[free].Unit = int64(16<<10) + int64(i)*e.pageSize
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCacheHit scores one candidate repeatedly: pure LRU lookups.
func BenchmarkEngineCacheHit(b *testing.B) {
	_, e := benchApp(b)
	specs := Uniform(e.NumArrays(), Candidate{Unit: 64 << 10, Factor: 4, Start: 0})
	if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScoreLite(WholeProgram, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReattributedScorerFaster is the CI bench smoke: in the re-attribution
// regime — the schedule memo hits and a candidate costs one disk re-mapping
// plus two (partially cached) replays — the engine must score candidates at
// least 10x faster than the full per-candidate pipeline (compile,
// restructure, generate, simulate). Measured on this workload the gap is
// ~17x; 10x leaves slack for a noisy shared runner.
func TestReattributedScorerFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	a, err := apps.ByName("scf", apps.Default)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// SCF has arrays that never appear as an iteration's first reference;
	// varying only their specs keeps the schedule memoized, so scoring is
	// re-attribution only.
	free := -1
	for i, in := range e.firstIn[0] {
		if !in {
			free = i
			break
		}
	}
	if free < 0 {
		t.Fatal("no non-primary array to vary")
	}
	base := Uniform(e.NumArrays(), Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
	if _, err := e.ScoreLite(WholeProgram, base); err != nil {
		t.Fatal(err) // warms the schedule memo
	}
	// Minima filter out scheduler noise on shared runners. The two kinds of
	// sample are interleaved, so drift in host load hits both, and each is
	// taken after a collection, so neither pays for the other's garbage.
	const (
		rounds       = 6 // one full sample per round
		fastPerRound = 4
	)
	fast := time.Duration(1<<62 - 1)
	full := time.Duration(1<<62 - 1)
	sample := func(best *time.Duration, f func() error) {
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < *best {
			*best = d
		}
	}
	for round := 0; round < rounds; round++ {
		sample(&full, func() error {
			_, err := Evaluate(a, Candidate{Unit: 32 << 10, Factor: 4, Start: 0})
			return err
		})
		for i := round * fastPerRound; i < (round+1)*fastPerRound; i++ {
			specs := base.Clone()
			// Units disjoint from base's 32K, so every score is a cache
			// miss resolved by re-attribution over the memoized schedule.
			specs[free].Unit = int64(136<<10) + int64(i)*e.pageSize
			sample(&fast, func() error {
				_, err := e.ScoreLite(WholeProgram, specs)
				return err
			})
		}
	}
	t.Logf("reattribution-only=%s full-pipeline=%s speedup=%.1fx", fast, full, float64(full)/float64(fast))
	if fast*10 > full {
		t.Errorf("re-attribution scoring %s not 10x faster than full pipeline %s", fast, full)
	}
}
