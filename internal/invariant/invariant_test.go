package invariant

import (
	"context"
	"strings"
	"sync"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/drlgen"
	"diskreuse/internal/exp"
	"diskreuse/internal/layout"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// TestInvariantSuite is the randomized end-to-end harness: 200 seeded
// generator cases, each run through the full pipeline with all five
// invariant families asserted. The batches steer the generator toward the
// regimes where the pipeline's corners live: dependence-heavy programs,
// idle gaps long enough to trigger TPM/DRPM transitions, and iteration
// spaces big enough to cross the parallel-path thresholds.
func TestInvariantSuite(t *testing.T) {
	type batch struct {
		name  string
		seeds int
		base  int64 // first seed, so batches never share cases
		cfg   drlgen.Config
		opt   func(seed int64) Options
		// aggregate, when true, additionally asserts that summed TPM and
		// DRPM energy beat the summed NoPM baseline over the whole batch
		// (the paper's Table 3 claim, valid in the long-gap regime).
		aggregate bool
	}
	batches := []batch{
		{
			name:  "small",
			seeds: 110,
			base:  1000,
			cfg:   drlgen.Config{},
			opt:   func(int64) Options { return Options{} },
		},
		{
			name:  "deps",
			seeds: 50,
			base:  2000,
			cfg:   drlgen.Config{DepPairPct: 90, TriangularPct: 50},
			opt:   func(int64) Options { return Options{} },
		},
		{
			// Few pages, tens of seconds of compute between touches: every
			// inter-request gap dwarfs the 15.2 s break-even, so TPM spins
			// down and DRPM shifts on essentially every idle period.
			name:  "longgap",
			seeds: 32,
			base:  3000,
			cfg: drlgen.Config{
				MaxArrays: 2, MaxNests: 2, MaxDepth: 1,
				MaxExtent: 4, MaxStmts: 2, MaxIterations: 32,
			},
			opt: func(seed int64) Options {
				return Options{ComputePerIter: 15 + float64(seed%6)*15}
			},
			aggregate: true,
		},
		{
			// Single deep rectangular nest above interp's serial/parallel
			// crossover (4096 iterations), so the determinism family
			// actually exercises the sharded dependence build and the
			// sharded simulator loop.
			name:  "big",
			seeds: 8,
			base:  4000,
			cfg: drlgen.Config{
				MaxNests: 1, MinDepth: 2, MaxDepth: 2,
				MinExtent: 64, MaxExtent: 80,
				MaxIterations: 6400, TriangularPct: -1, StepPct: -1,
			},
			opt: func(int64) Options { return Options{} },
		},
	}

	total := 0
	for _, b := range batches {
		total += b.seeds
	}
	if total < 200 {
		t.Fatalf("suite covers %d cases, want >= 200", total)
	}

	for _, b := range batches {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			var mu sync.Mutex
			var baseSum, tpmSum, drpmSum float64
			transitions := 0
			var wg sync.WaitGroup
			sem := make(chan struct{}, 4)
			for i := 0; i < b.seeds; i++ {
				seed := b.base + int64(i)
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer func() { <-sem; wg.Done() }()
					c := drlgen.Generate(seed, b.cfg)
					rep, err := Check(c.Source, b.opt(seed))
					if err != nil {
						t.Errorf("seed %d: %v\nsource:\n%s", seed, err, c.Source)
						return
					}
					mu.Lock()
					baseSum += rep.Energy[sim.NoPM]
					tpmSum += rep.Energy[sim.TPM]
					drpmSum += rep.Energy[sim.DRPM]
					transitions += rep.SpinUps + rep.SpinDowns + rep.SpeedShifts
					mu.Unlock()
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if b.aggregate {
				if transitions == 0 {
					t.Fatalf("long-gap batch triggered no power transitions; the batch is not exercising TPM/DRPM")
				}
				if tpmSum > baseSum {
					t.Errorf("aggregate TPM energy %.1f J exceeds NoPM baseline %.1f J", tpmSum, baseSum)
				}
				if drpmSum > baseSum {
					t.Errorf("aggregate DRPM energy %.1f J exceeds NoPM baseline %.1f J", drpmSum, baseSum)
				}
			}
			t.Logf("%d cases: Base %.1f J, TPM %.1f J, DRPM %.1f J, %d transitions",
				b.seeds, baseSum, tpmSum, drpmSum, transitions)
		})
	}
}

// gapSrc is a tiny fixed program whose trace has long per-disk idle gaps,
// used by the tamper tests to get a TPM run with real transitions.
const gapSrc = `array A[8] elem 4096 stripe(unit=4K, factor=4, start=0)

nest walk {
	for i = 0 to 7 {
		A[i] = 1;
	}
}
`

// tamperRun builds one real simulated run to mutate.
func tamperRun(t *testing.T, pol sim.Policy) (SimRun, *sim.Result) {
	t.Helper()
	astProg, err := parser.Parse(gapSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.New(prog, lay)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := r.DiskReuseSchedule()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := trace.Generate(r, trace.SinglePhase(sched), trace.GenConfig{ComputePerIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	diskOf := func(block int64) (int, error) { return lay.PageDisk(block) }
	pt, err := sim.PrepareTrace(reqs, diskOf, lay.NumDisks())
	if err != nil {
		t.Fatal(err)
	}
	res, ivs, _, err := runRecorded(pt, Options{Model: disk.Ultrastar36Z15(), Jobs: 1}, pol, lay.NumDisks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return SimRun{
		Model:     disk.Ultrastar36Z15(),
		Policy:    pol,
		NumDisks:  lay.NumDisks(),
		Requests:  reqs,
		DiskOf:    diskOf,
		Result:    res,
		Intervals: ivs,
	}, res
}

// cloneRun deep-copies the mutable parts of a SimRun so each tamper starts
// from the same honest run.
func cloneRun(r SimRun) SimRun {
	res := *r.Result
	res.PerDisk = append([]sim.DiskStats(nil), r.Result.PerDisk...)
	r.Result = &res
	r.Intervals = append([]sim.Interval(nil), r.Intervals...)
	return r
}

// TestCheckSimRunDetectsTampering is the negative control for the
// conservation checker: a run that passes honestly must fail when any piece
// of its accounting is falsified.
func TestCheckSimRunDetectsTampering(t *testing.T) {
	honest, _ := tamperRun(t, sim.TPM)
	if err := CheckSimRun(honest); err != nil {
		t.Fatalf("honest TPM run rejected: %v", err)
	}
	if honest.Result.PerDisk[0].Meter.SpinUps == 0 {
		t.Fatalf("tamper fixture has no spin-ups; gaps too short")
	}

	cases := []struct {
		name   string
		tamper func(*SimRun)
		want   string
	}{
		{"energy total", func(r *SimRun) { r.Result.Energy += 100 }, "Energy"},
		{"free idle energy", func(r *SimRun) {
			// Keep the Energy total consistent so the per-disk meter check,
			// not the totals cross-check, is what catches the fake saving.
			m := &r.Result.PerDisk[0].Meter
			delta := m.IdleEnergy * 0.9
			m.IdleEnergy -= delta
			r.Result.Energy -= delta
		}, "idle energy"},
		{"shrunk makespan", func(r *SimRun) { r.Result.Makespan /= 2 }, "makespan"},
		{"phantom spin-up", func(r *SimRun) {
			r.Result.PerDisk[0].Meter.SpinUps++
			r.Result.PerDisk[0].Meter.SpinDowns++
		}, "transition"},
		{"dropped interval", func(r *SimRun) {
			for i, iv := range r.Intervals {
				if iv.Kind == sim.StateBusy {
					r.Intervals = append(r.Intervals[:i], r.Intervals[i+1:]...)
					return
				}
			}
			panic("no busy interval")
		}, "busy intervals"},
		{"time travel", func(r *SimRun) {
			for i := range r.Intervals {
				if r.Intervals[i].From > 1 {
					r.Intervals[i].From = 0
					return
				}
			}
			panic("no late interval")
		}, "overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := cloneRun(honest)
			tc.tamper(&r)
			err := CheckSimRun(r)
			if err == nil {
				t.Fatalf("tampered run accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckSimRunMixedSizesOffGrid runs the conservation checker over
// replays the per-disk memos of service time and state power are most
// likely to get wrong: request sizes switching among 4 KiB, 64 KiB and
// 1 MiB, on a DRPM model whose speeds (3500 … 15500) lie off its RPMStep
// grid. Family 4's energy reconstruction re-derives every accumulator from
// the interval stream through power.IdlePowerAt and power.ActivePowerAt.
func TestCheckSimRunMixedSizesOffGrid(t *testing.T) {
	const disks = 3
	m := disk.Ultrastar36Z15()
	m.RPMMin, m.RPMMax = 3500, 15500
	sizes := []int64{4 << 10, 64 << 10, 1 << 20}
	var reqs []trace.Request
	at := 0.0
	for i := 0; i < 3000; i++ {
		switch {
		case i%97 == 0:
			at += 25 // long enough to spin down or coast
		case i%7 == 0:
			at += 2
		default:
			at += 0.004
		}
		reqs = append(reqs, trace.Request{Arrival: at, Block: int64(i * 5), Size: sizes[(i*i+i/3)%3], Proc: i % 2})
	}
	diskOf := func(block int64) (int, error) { return int(block % disks), nil }
	pt, err := sim.PrepareTrace(reqs, diskOf, disks)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM} {
		res, ivs, _, err := runRecorded(pt, Options{Model: m}, pol, disks, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pol == sim.DRPM && res.PerDisk[0].Meter.SpeedShifts == 0 {
			t.Fatalf("DRPM fixture never shifts speed")
		}
		if pol == sim.TPM && res.PerDisk[0].Meter.SpinUps == 0 {
			t.Fatalf("TPM fixture never spins down")
		}
		r := SimRun{Model: m, Policy: pol, NumDisks: disks, Requests: reqs, DiskOf: diskOf, Result: res, Intervals: ivs}
		if err := CheckSimRun(r); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// TestCheckPolicyDominance exercises the bounded-dominance law directly:
// the honest pair passes, and a policy result claiming impossible extra
// energy fails.
func TestCheckPolicyDominance(t *testing.T) {
	m := disk.Ultrastar36Z15()
	_, baseRes := tamperRun(t, sim.NoPM)
	_, tpmRes := tamperRun(t, sim.TPM)
	if err := CheckPolicyDominance(baseRes, tpmRes, m); err != nil {
		t.Fatalf("honest pair rejected: %v", err)
	}
	bad := *tpmRes
	bad.Energy = baseRes.Energy * 10
	if err := CheckPolicyDominance(baseRes, &bad, m); err == nil {
		t.Fatalf("inflated policy energy accepted")
	} else if !strings.Contains(err.Error(), "exceeds Base") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestJobsConvention pins the unified Jobs contract across the three
// configurable layers: 0 selects GOMAXPROCS, 1 forces the serial path, and
// negative values are rejected with an explanatory error.
func TestJobsConvention(t *testing.T) {
	prog, err := sema.Analyze(mustParse(t, gapSrc), sema.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	t.Run("core", func(t *testing.T) {
		for _, jobs := range []int{0, 1, 4} {
			if _, err := core.NewCtx(ctx, prog, nil, core.Options{Jobs: jobs}); err != nil {
				t.Errorf("Jobs=%d rejected: %v", jobs, err)
			}
		}
		_, err := core.NewCtx(ctx, prog, nil, core.Options{Jobs: -1})
		wantJobsErr(t, err, "core")
	})

	t.Run("sim", func(t *testing.T) {
		lay, err := layout.New(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.New(prog, lay)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := trace.Generate(r, trace.SinglePhase(r.OriginalSchedule()), trace.GenConfig{ComputePerIter: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := sim.PrepareTrace(reqs, func(b int64) (int, error) { return lay.PageDisk(b) }, lay.NumDisks())
		if err != nil {
			t.Fatal(err)
		}
		m := disk.Ultrastar36Z15()
		for _, jobs := range []int{0, 1, 4} {
			if _, err := sim.RunPrepared(pt, sim.Config{Model: m, NumDisks: lay.NumDisks(), Jobs: jobs}); err != nil {
				t.Errorf("Jobs=%d rejected: %v", jobs, err)
			}
		}
		_, err = sim.RunPrepared(pt, sim.Config{Model: m, NumDisks: lay.NumDisks(), Jobs: -1})
		wantJobsErr(t, err, "sim")
	})

	t.Run("exp", func(t *testing.T) {
		app := apps.App{Name: "tiny", Source: gapSrc, ComputePerIter: 1e-3}
		_, err := exp.RunAppContext(ctx, app, exp.Options{Jobs: -1})
		wantJobsErr(t, err, "exp")
		if _, err := exp.RunAppContext(ctx, app, exp.Options{Jobs: 2}); err != nil {
			t.Errorf("Jobs=2 rejected: %v", err)
		}
	})
}

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantJobsErr asserts the unified negative-Jobs error shape.
func wantJobsErr(t *testing.T, err error, pkg string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: negative Jobs accepted", pkg)
	}
	if !strings.Contains(err.Error(), "must be >= 0") || !strings.Contains(err.Error(), pkg+":") {
		t.Fatalf("%s: error %q lacks the unified convention message", pkg, err)
	}
}
