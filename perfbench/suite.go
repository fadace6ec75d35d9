package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/ast"
	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/exp"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/obs"
	"diskreuse/internal/par"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// paperSuiteGolden is a copy of the repository's BENCH_3.json: the paper
// suite's 1- and 4-processor results at the default scale. Every row the
// benchmark produces must match it on every field it records.
//
//go:embed paper_suite_golden.json
var paperSuiteGolden []byte

// suiteProcs are the processor counts of one paper-suite round, in order.
var suiteProcs = []int{1, 4}

func loadGolden() ([]exp.SuiteJSON, error) {
	var g []exp.SuiteJSON
	if err := json.Unmarshal(paperSuiteGolden, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

// checkSuite compares one suite result against the golden grid for its
// processor count: every (app, version) row on every field the golden
// records, the app's data size, and the per-version suite averages. Each
// row and each average is one checked operation.
func checkSuite(c *checks, golden []exp.SuiteJSON, sr *exp.SuiteResult) {
	got := exp.ToJSON(sr)
	var want *exp.SuiteJSON
	for i := range golden {
		if golden[i].Procs == got.Procs {
			want = &golden[i]
		}
	}
	if want == nil {
		c.fail("paper-suite: no golden grid for %d processors", got.Procs)
		return
	}
	for i, v := range want.Versions {
		if i >= len(got.Versions) || got.Versions[i] != v {
			c.fail("paper-suite %dP: version average %s differs from golden", got.Procs, v.Version)
			continue
		}
		c.pass(1)
	}
	byApp := make(map[string]exp.AppJSON, len(got.Apps))
	for _, a := range got.Apps {
		byApp[a.App] = a
	}
	for _, wa := range want.Apps {
		ga, ok := byApp[wa.App]
		for j, wr := range wa.Results {
			switch {
			case !ok || j >= len(ga.Results):
				c.fail("paper-suite %dP %s/%s: row missing", got.Procs, wa.App, wr.Version)
			case ga.DataBytes != wa.DataBytes:
				c.fail("paper-suite %dP %s: data_bytes %d, golden %d", got.Procs, wa.App, ga.DataBytes, wa.DataBytes)
			case recorded(ga.Results[j]) != recorded(wr):
				c.fail("paper-suite %dP %s/%s: row %+v differs from golden %+v",
					got.Procs, wa.App, wr.Version, recorded(ga.Results[j]), recorded(wr))
			default:
				c.pass(1)
			}
		}
	}
}

// recorded keeps the fields of a result row that the golden records.
func recorded(r exp.ResultJSON) exp.ResultJSON {
	r.IdlePeriods, r.MeanIdleS, r.LongestIdleS = 0, 0, 0
	return r
}

// runPaperSuite measures the paper's evaluation: rounds of exp.RunSuite at
// the default scale, Jobs 1, at 1 and then 4 processors. The traced run
// alternates an untraced round with a round that drives the same pipeline
// stage by stage through the layers' public calls (stagedSuite), timing
// each call.
func runPaperSuite(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var golden []exp.SuiteJSON
	setup, err := setUp(func() (time.Duration, error) {
		start := time.Now()
		g, err := loadGolden()
		if err != nil {
			return 0, err
		}
		golden = g
		// Warm-up: the whole pipeline at the small scale, so lazy runtime
		// set-up and heap growth are not charged to the first round.
		for _, procs := range suiteProcs {
			if _, err := exp.RunSuite(exp.Options{Size: apps.Small, Procs: procs, Jobs: 1}); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup

	if cfg.traced {
		return o, tracePaperSuite(cfg, o, golden)
	}
	var rs rounds
	heap := startHeapSampler(heapSampleEvery)
	err = repeatUntil(cfg.seconds, 3, func(int) error {
		// Every round starts from the same heap: the previous round's
		// results are garbage, so collect them first.
		runtime.GC()
		start := time.Now()
		rows := 0
		for _, procs := range suiteProcs {
			t := time.Now()
			sr, err := exp.RunSuite(exp.Options{Size: apps.Default, Procs: procs, Jobs: 1})
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "perfbench: %dP suite: %.4f s\n", procs, time.Since(t).Seconds())
			checkSuite(&o.checks, golden, sr)
			rows += len(sr.Apps) * len(exp.VersionsFor(procs))
		}
		rs.add(time.Since(start), rows)
		return nil
	})
	o.metrics["peak_heap_mib"] = heap.finish()
	if err != nil {
		return nil, err
	}
	rs.report(o)
	return o, nil
}

// modelCounts are the modelled counts of one paper-suite round. They
// depend only on the inputs, so every round of every run must repeat them.
type modelCounts struct {
	traceRequests, simRequests, diskRuns, spinUps, speedShifts int
}

// paperSuiteCounts are the modelled counts of the paper suite at 1 and 4
// processors, as the pipeline produced them when the benchmark was made.
var paperSuiteCounts = modelCounts{
	traceRequests: 7581026, simRequests: 18193776, diskRuns: 196620, spinUps: 565, speedShifts: 10346,
}

func tracePaperSuite(cfg runConfig, o *outcome, golden []exp.SuiteJSON) error {
	var plain, traced []time.Duration
	var ledgers []*ledger
	var first modelCounts
	err := repeatUntil(cfg.seconds, 2, func(round int) error {
		runtime.GC()
		start := time.Now()
		var reference []exp.SuiteJSON
		for _, procs := range suiteProcs {
			sr, err := exp.RunSuite(exp.Options{Size: apps.Default, Procs: procs, Jobs: 1})
			if err != nil {
				return err
			}
			checkSuite(&o.checks, golden, sr)
			reference = append(reference, exp.ToJSON(sr))
		}
		plain = append(plain, time.Since(start))

		runtime.GC()
		l := newLedger(true)
		var counts modelCounts
		start = time.Now()
		err := l.do("pass", func() error {
			for i, procs := range suiteProcs {
				sr, err := stagedSuite(l, procs, &counts)
				if err != nil {
					return err
				}
				checkSuite(&o.checks, golden, sr)
				if got := exp.ToJSON(sr); !reflect.DeepEqual(got, reference[i]) {
					o.checks.fail("paper-suite %dP: staged pipeline differs from exp.RunSuite", procs)
				} else {
					o.checks.pass(1)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		traced = append(traced, time.Since(start))
		ledgers = append(ledgers, l)
		if counts != paperSuiteCounts {
			o.checks.fail("paper-suite: modelled counts %+v, recorded %+v", counts, paperSuiteCounts)
		} else {
			o.checks.pass(1)
		}
		if round == 0 {
			first = counts
		}
		return nil
	})
	if err != nil {
		return err
	}
	reportLedger(o, ledgers)
	o.metrics["trace.requests"] = float64(first.traceRequests)
	o.metrics["sim.requests"] = float64(first.simRequests)
	o.metrics["core.disk_runs"] = float64(first.diskRuns)
	o.metrics["sim.spin_ups"] = float64(first.spinUps)
	o.metrics["sim.speed_shifts"] = float64(first.speedShifts)
	if s := o.metrics["sim.replay_s"]; s > 0 {
		o.metrics["sim.replay_mreq_s"] = float64(first.simRequests) / s / 1e6
	}
	// The traced round runs the three interp passes twice, once timed on
	// their own and once inside core.NewCtx; the untraced round runs them
	// once. Their separately timed copies are the benchmark's own extra
	// work, not the cost of tracing, so they are taken out.
	overhead := make([]float64, len(traced))
	for i, l := range ledgers {
		t := l.totals()
		dup := t["interp.space"].self + t["interp.validate"].self + t["interp.deps"].self
		overhead[i] = (traced[i] - dup - plain[i]).Seconds()
	}
	o.metrics["bench.trace_overhead_s"] = median(overhead)
	return nil
}

// ledgerLayers maps ledger span names to the per-layer metrics that report
// their per-round self time.
var ledgerLayers = map[string]string{
	"parser.parse":    "parser.parse_s",
	"sema.analyze":    "sema.analyze_s",
	"layout.new":      "layout.new_s",
	"interp.space":    "interp.space_s",
	"interp.validate": "interp.validate_s",
	"interp.deps":     "interp.deps_s",
	"core.new":        "core.new_s",
	"core.schedule":   "core.schedule_s",
	"par.partition":   "par.partition_s",
	"trace.phases":    "trace.phases_s",
	"trace.generate":  "trace.generate_s",
	"sim.prepare":     "sim.prepare_s",
	"sim.replay":      "sim.replay_s",
}

// allocLayers are the spans whose allocations are reported.
var allocLayers = []string{"interp.deps", "core.schedule", "trace.generate", "sim.prepare"}

// reportLedger turns the per-round ledgers into per-layer metrics: each is
// the median over rounds of that round's total. The "pass" span's self
// time is the residue no layer call accounts for. core.attribute_s is
// derived by subtraction: core.NewCtx re-runs the three interp passes the
// benchmark timed separately, and its excess over them is disk
// attribution, which has no public entry point of its own.
func reportLedger(o *outcome, ledgers []*ledger) {
	per := make(map[string][]float64)
	for _, l := range ledgers {
		t := l.totals()
		for span, metric := range ledgerLayers {
			per[metric] = append(per[metric], t[span].self.Seconds())
		}
		attr := t["core.new"].self - t["interp.space"].self - t["interp.validate"].self - t["interp.deps"].self
		per["core.attribute_s"] = append(per["core.attribute_s"], attr.Seconds())
		per["ledger.wall_s"] = append(per["ledger.wall_s"], t["pass"].incl.Seconds())
		per["ledger.residue_s"] = append(per["ledger.residue_s"], t["pass"].self.Seconds())
		for _, name := range allocLayers {
			per[name+".alloc_mib"] = append(per[name+".alloc_mib"], float64(t[name].allocBytes)/(1<<20))
			per[name+".allocs"] = append(per[name+".allocs"], float64(t[name].allocCount))
		}
	}
	for metric, xs := range per {
		o.metrics[metric] = median(xs)
	}
}

// execution is one prepared execution plan of an application, as the exp
// package builds it: its barrier phases, clustering statistic, generated
// trace and simulator-prepared form.
type execution struct {
	phases   []trace.Phase
	diskRuns int
	prep     *sim.PreparedTrace
}

// stagedSuite runs the paper suite at one processor count stage by stage
// through the layers' public calls, timing each call in l. It repeats
// exp.RunSuite's stage order and configuration at Jobs 1, so its result
// must equal RunSuite's exactly; the caller checks that.
func stagedSuite(l *ledger, procs int, counts *modelCounts) (*exp.SuiteResult, error) {
	ctx := context.Background()
	model := disk.Ultrastar36Z15()
	versions := exp.VersionsFor(procs)
	sr := &exp.SuiteResult{Procs: procs}
	for _, a := range apps.Suite(apps.Default) {
		var (
			src   *ast.Program
			prog  *sema.Program
			lay   *layout.Layout
			space *interp.Space
			r     *core.Restructurer
			err   error
		)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"parser.parse", func() error { src, err = parser.Parse(a.Source); return err }},
			{"sema.analyze", func() error { prog, err = sema.Analyze(src, sema.Options{}); return err }},
			{"layout.new", func() error { lay, err = layout.New(prog, 0); return err }},
			{"interp.space", func() error {
				space, err = interp.BuildSpaceOpts(ctx, prog, interp.BuildOptions{Jobs: 1})
				return err
			}},
			{"interp.validate", func() error { return space.ValidateCtx(ctx, 1) }},
			{"interp.deps", func() error { _, err = space.BuildDepsCtx(ctx, 1); return err }},
			{"core.new", func() error { r, err = core.NewCtx(ctx, prog, lay, core.Options{Jobs: 1}); return err }},
		}
		for _, s := range steps {
			if err := l.do(s.name, s.fn); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, s.name, err)
			}
		}
		orig, restrS, restrM, err := planExecutions(l, r, procs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		gen := trace.GenConfig{ComputePerIter: a.ComputePerIter, ServiceEstimate: model.FullSpeedService(lay.PageSize)}
		for _, e := range []*execution{orig, restrS, restrM} {
			if e == nil {
				continue
			}
			var reqs []trace.Request
			if err := l.do("trace.generate", func() error { reqs, err = trace.Generate(r, e.phases, gen); return err }); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			if err := l.do("sim.prepare", func() error {
				e.prep, err = sim.PrepareTrace(reqs, lay.PageDisk, lay.NumDisks())
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			counts.traceRequests += len(reqs)
			counts.diskRuns += e.diskRuns
		}
		ar := exp.AppResult{App: a}
		for _, arr := range prog.Arrays {
			ar.DataBytes += arr.Bytes()
		}
		for _, v := range versions {
			e := orig
			switch v {
			case exp.VTTPMs, exp.VTDRPMs:
				e = restrS
			case exp.VTTPMm, exp.VTDRPMm:
				e = restrM
			}
			tel := obs.NewSimTelemetry(lay.NumDisks())
			var res *sim.Result
			if err := l.do("sim.replay", func() error {
				res, err = sim.RunPrepared(e.prep, sim.Config{
					Model: model, NumDisks: lay.NumDisks(), Policy: exp.PolicyOf(v), Jobs: 1, Telemetry: tel,
				})
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.Name, v, err)
			}
			rr := exp.RunResult{
				App: a.Name, Version: v, Procs: procs,
				Energy: res.Energy, IOTime: res.IOTime, Response: res.ResponseTime,
				Requests: res.Requests, DiskRuns: e.diskRuns,
			}
			for _, st := range res.PerDisk {
				rr.SpinUps += st.Meter.SpinUps
				rr.SpeedShifts += st.Meter.SpeedShifts
			}
			idle := tel.IdleLocality()
			rr.IdlePeriods, rr.TotalIdle, rr.MeanIdle, rr.LongestIdle = idle.Periods, idle.TotalIdleS, idle.MeanIdleS, idle.LongestIdleS
			rr.IdleHist = tel.Histogram()
			ar.Results = append(ar.Results, rr)
			counts.simRequests += rr.Requests
			counts.spinUps += rr.SpinUps
			counts.speedShifts += rr.SpeedShifts
		}
		exp.Normalize(&ar)
		sr.Apps = append(sr.Apps, ar)
	}
	return sr, nil
}

// planExecutions builds the execution plans a processor count needs, as
// exp's preparation does: the original order, the single-processor-style
// restructured order and, for procs > 1, the layout-aware restructured
// order.
func planExecutions(l *ledger, r *core.Restructurer, procs int) (orig, restrS, restrM *execution, err error) {
	numDisks := r.Layout.NumDisks()
	if procs == 1 {
		var o, s *core.Schedule
		var runsO, runsS int
		err = l.do("core.schedule", func() error {
			o = r.OriginalSchedule()
			if s, err = r.DiskReuseSchedule(); err != nil {
				return err
			}
			if err = r.Verify(s); err != nil {
				return err
			}
			runsO, runsS = core.Stats(o, numDisks).Runs, core.Stats(s, numDisks).Runs
			return nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		var po, ps []trace.Phase
		l.do("trace.phases", func() error { po, ps = trace.SinglePhase(o), trace.SinglePhase(s); return nil })
		return &execution{phases: po, diskRuns: runsO}, &execution{phases: ps, diskRuns: runsS}, nil, nil
	}

	var lp, la *par.Assignment
	err = l.do("par.partition", func() error {
		if lp, err = par.LoopParallelize(r, procs); err != nil {
			return err
		}
		la, err = par.LayoutAware(r, procs)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	numNests := len(r.Prog.Nests)
	build := func(a *par.Assignment, restructure bool) (*execution, error) {
		var subsets [][]int
		l.do("par.partition", func() error { subsets = a.Subsets(); return nil })
		perProc := make([][]int, procs)
		runs := 0
		for p, sub := range subsets {
			// Split the processor's iterations by nest (barrier phases).
			byNest := make([][]int, numNests)
			for _, id := range sub {
				k := r.Space.Nest(id)
				byNest[k] = append(byNest[k], id)
			}
			for _, group := range byNest {
				if len(group) == 0 {
					continue
				}
				order := group
				if restructure {
					err := l.do("core.schedule", func() error {
						s, err := r.ScheduleFor(group)
						if err != nil {
							return err
						}
						order = s.Order
						runs += core.Stats(s, numDisks).Runs
						return nil
					})
					if err != nil {
						return nil, err
					}
				} else {
					runs += runsOf(r, group)
				}
				perProc[p] = append(perProc[p], order...)
			}
		}
		var phases []trace.Phase
		err := l.do("trace.phases", func() error {
			phases = trace.NestPhases(r.Space, perProc, numNests)
			return trace.VerifyPhases(r.Space, r.Graph, phases)
		})
		if err != nil {
			return nil, err
		}
		return &execution{phases: phases, diskRuns: runs}, nil
	}
	if orig, err = build(lp, false); err != nil {
		return nil, nil, nil, err
	}
	if restrS, err = build(lp, true); err != nil {
		return nil, nil, nil, err
	}
	if restrM, err = build(la, true); err != nil {
		return nil, nil, nil, err
	}
	return orig, restrS, restrM, nil
}

// runsOf counts same-disk runs in an unrestructured iteration order.
func runsOf(r *core.Restructurer, order []int) int {
	runs, prev := 0, -1
	for _, id := range order {
		if d := r.PrimaryDisk(id); d != prev {
			runs++
			prev = d
		}
	}
	return runs
}
