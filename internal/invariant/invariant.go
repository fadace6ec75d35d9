// Package invariant is the correctness harness for the whole pipeline: it
// runs a DRL program (typically produced by internal/drlgen) through
// compile → restructure → trace generation → simulation and asserts the
// load-bearing properties end to end, in eight families:
//
//  1. Legality — the disk-reuse schedule is a permutation of the iteration
//     space and passes interp.Space.VerifySchedule.
//  2. Metamorphic equivalence — replaying the restructured order reaches
//     the same element-wise final store state as program order
//     (interp.Space.FinalStoreState).
//  3. Multiset preservation — restructuring reorders the per-disk access
//     stream but never adds, drops, or rewrites a request.
//  4. Simulator conservation — energy decomposes exactly into time-in-state
//     × state power plus transition energies, busy time fits the makespan,
//     no request is served before it arrives, and policy energy exceeds
//     the NoPM baseline only through the accounted channels
//     (CheckSimRun, CheckPolicyDominance).
//  5. Determinism — every stage is bit-identical at Jobs=1 and Jobs=N.
//  6. Engine parity — the stride-compiled execution engine and the
//     tree-walk oracle produce bit-identical iteration spaces, dependence
//     graphs, disk attributions, schedules, and request traces (one and
//     2-4 processors), at Jobs=1 and Jobs=N (CheckEngineParity).
//  7. Streaming parity — replaying the trace through the out-of-core path
//     (binary encode → chunked decode → sim.RunStream) produces the same
//     Result, interval stream, and telemetry as the in-memory replay, bit
//     for bit, at Jobs=1 and Jobs=N.
//  8. Layout-search fidelity — the re-attribution scoring engine's beam
//     search is bit-identical at Jobs=1 and Jobs=N, and every beam
//     survivor's score matches a from-scratch full-pipeline evaluation of
//     that per-array layout, bit for bit (CheckLayoutSearch).
//
// These are exactly the assumptions the paper's claims rest on (§5 legality
// of the Fig. 3 reordering, §7 fidelity of the energy accounting), turned
// into machine-checked properties every future change must preserve.
package invariant

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"diskreuse/internal/core"
	"diskreuse/internal/disk"
	"diskreuse/internal/drlgen"
	"diskreuse/internal/interp"
	"diskreuse/internal/layout"
	"diskreuse/internal/obs"
	"diskreuse/internal/par"
	"diskreuse/internal/parser"
	"diskreuse/internal/sema"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Options configures one end-to-end check.
type Options struct {
	// Model is the disk model; a zero Name selects the Ultrastar 36Z15.
	Model disk.Model
	// ComputePerIter is the trace generator's per-iteration compute time in
	// seconds; zero selects 1 ms. Long values (tens of seconds) open
	// TPM/DRPM-relevant idle gaps.
	ComputePerIter float64
	// Jobs is the parallel worker budget compared against the serial run
	// for the determinism family; values < 1 select 8.
	Jobs int
	// TPMThreshold overrides the TPM spin-down threshold (0 = break-even).
	TPMThreshold float64
}

// Report summarizes a passing check, so callers (the CLI repro flags, the
// test suite's aggregates) can see what the case exercised.
type Report struct {
	Iterations int
	Edges      int
	Disks      int
	Requests   int
	// Energy is the restructured trace's total energy per policy.
	Energy map[sim.Policy]float64
	// BaseEnergyOriginal is NoPM energy over the program-order trace.
	BaseEnergyOriginal float64
	// Transition totals across the power-managed runs.
	SpinUps, SpinDowns, SpeedShifts int
}

// policies every case is simulated under.
var policies = []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM}

// PipelineFuzzConfig is the generator configuration shared by the
// FuzzPipeline target and dpcc's -fuzz-case flag, so a corpus entry replays
// into exactly the program the fuzzer exercised.
var PipelineFuzzConfig = drlgen.Config{MaxIterations: 96}

// Check runs src through the full pipeline and asserts all seven invariant
// families, returning a Report on success and the first violation as an
// error. The source must be a valid DRL program (drlgen output always is).
func Check(src string, opt Options) (*Report, error) {
	if opt.Model.Name == "" {
		opt.Model = disk.Ultrastar36Z15()
	}
	if opt.ComputePerIter == 0 {
		opt.ComputePerIter = 1e-3
	}
	if opt.Jobs < 1 {
		opt.Jobs = 8
	}

	// Front end.
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		return nil, fmt.Errorf("sema: %w", err)
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}

	// Family 5 (analysis): the serial and parallel front-ends must agree on
	// the dependence graph and the disk attribution exactly.
	ctx := context.Background()
	r1, err := core.NewCtx(ctx, prog, lay, core.Options{Jobs: 1})
	if err != nil {
		return nil, fmt.Errorf("restructure (serial): %w", err)
	}
	rN, err := core.NewCtx(ctx, prog, lay, core.Options{Jobs: opt.Jobs})
	if err != nil {
		return nil, fmt.Errorf("restructure (jobs=%d): %w", opt.Jobs, err)
	}
	if !reflect.DeepEqual(r1.Graph, rN.Graph) {
		return nil, fmt.Errorf("determinism: dependence graph differs between Jobs=1 and Jobs=%d", opt.Jobs)
	}
	n := r1.Space.NumIterations()
	for id := 0; id < n; id++ {
		if r1.PrimaryDisk(id) != rN.PrimaryDisk(id) {
			return nil, fmt.Errorf("determinism: primary disk of iteration %d differs between Jobs=1 and Jobs=%d", id, opt.Jobs)
		}
		if !reflect.DeepEqual(r1.TouchedDisks(id), rN.TouchedDisks(id)) {
			return nil, fmt.Errorf("determinism: touched disks of iteration %d differ between Jobs=1 and Jobs=%d", id, opt.Jobs)
		}
	}

	// Family 6: the compiled engine and the tree-walk oracle must agree
	// bit for bit on everything downstream of the front end.
	if err := checkEngineParity(prog, lay, opt.ComputePerIter, opt.Jobs); err != nil {
		return nil, err
	}

	orig := r1.OriginalSchedule()
	sched, err := r1.DiskReuseSchedule()
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	schedN, err := rN.DiskReuseSchedule()
	if err != nil {
		return nil, fmt.Errorf("schedule (jobs=%d): %w", opt.Jobs, err)
	}
	if !reflect.DeepEqual(sched.Order, schedN.Order) || !reflect.DeepEqual(sched.Disk, schedN.Disk) {
		return nil, fmt.Errorf("determinism: disk-reuse schedule differs between Jobs=1 and Jobs=%d", opt.Jobs)
	}

	// Family 1: legality. Verify checks permutation + dependences; the
	// explicit re-checks below keep this family independent of Verify's
	// implementation details.
	if err := r1.Verify(sched); err != nil {
		return nil, fmt.Errorf("legality: %w", err)
	}
	if len(sched.Order) != n || len(sched.Disk) != n {
		return nil, fmt.Errorf("legality: schedule covers %d of %d iterations", len(sched.Order), n)
	}
	seen := make([]bool, n)
	for k, id := range sched.Order {
		if id < 0 || id >= n || seen[id] {
			return nil, fmt.Errorf("legality: schedule is not a permutation at position %d (id %d)", k, id)
		}
		seen[id] = true
		if sched.Disk[k] != r1.PrimaryDisk(id) {
			return nil, fmt.Errorf("legality: position %d clustered under disk %d but iteration %d's primary disk is %d",
				k, sched.Disk[k], id, r1.PrimaryDisk(id))
		}
	}

	// Family 2: metamorphic store-state equivalence.
	if !reflect.DeepEqual(r1.Space.FinalStoreState(orig.Order), r1.Space.FinalStoreState(sched.Order)) {
		return nil, fmt.Errorf("metamorphic: restructured replay reaches a different final store state")
	}

	// Family 3: the restructured trace is a per-disk permutation of the
	// original trace's requests.
	gcfg := trace.GenConfig{ComputePerIter: opt.ComputePerIter}
	origReqs, err := trace.Generate(r1, trace.SinglePhase(orig), gcfg)
	if err != nil {
		return nil, fmt.Errorf("trace (original): %w", err)
	}
	schedReqs, err := trace.Generate(r1, trace.SinglePhase(sched), gcfg)
	if err != nil {
		return nil, fmt.Errorf("trace (restructured): %w", err)
	}
	if err := sameRequestMultiset(origReqs, schedReqs, lay); err != nil {
		return nil, fmt.Errorf("multiset: %w", err)
	}

	// Families 4 and 5 (simulation): run every policy on the restructured
	// trace at Jobs=1 and Jobs=N, require bit-identical results and interval
	// streams, and check the conservation laws on each run.
	diskOf := func(block int64) (int, error) { return lay.PageDisk(block) }
	numDisks := lay.NumDisks()
	pt, err := sim.PrepareTrace(schedReqs, diskOf, numDisks)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rep := &Report{
		Iterations: n,
		Edges:      r1.Graph.NumEdges(),
		Disks:      numDisks,
		Requests:   len(schedReqs),
		Energy:     make(map[sim.Policy]float64, len(policies)),
	}
	// Family 7's streaming legs replay the binary encoding of the same
	// arrival-sorted request stream the prepared trace replays.
	var encoded bytes.Buffer
	if err := trace.EncodeBinary(&encoded, pt.Sorted(), 0, numDisks); err != nil {
		return nil, fmt.Errorf("streaming parity: encode: %w", err)
	}
	var baseRes *sim.Result
	for _, pol := range policies {
		res1, ivs1, tel1, err := runRecorded(pt, opt, pol, numDisks, 1)
		if err != nil {
			return nil, fmt.Errorf("sim %s (serial): %w", pol, err)
		}
		resN, ivsN, telN, err := runRecorded(pt, opt, pol, numDisks, opt.Jobs)
		if err != nil {
			return nil, fmt.Errorf("sim %s (jobs=%d): %w", pol, opt.Jobs, err)
		}
		if !reflect.DeepEqual(res1, resN) {
			return nil, fmt.Errorf("determinism: %s result differs between Jobs=1 and Jobs=%d", pol, opt.Jobs)
		}
		if !reflect.DeepEqual(ivs1, ivsN) {
			return nil, fmt.Errorf("determinism: %s interval stream differs between Jobs=1 and Jobs=%d", pol, opt.Jobs)
		}
		if !reflect.DeepEqual(tel1, telN) {
			return nil, fmt.Errorf("determinism: %s telemetry differs between Jobs=1 and Jobs=%d", pol, opt.Jobs)
		}

		// Family 7: the out-of-core path must be bit-identical to the
		// in-memory replay at both worker counts.
		for _, jobs := range []int{1, opt.Jobs} {
			resS, ivsS, telS, err := runStreamed(encoded.Bytes(), opt, pol, numDisks, jobs, diskOf)
			if err != nil {
				return nil, fmt.Errorf("sim %s (streamed, jobs=%d): %w", pol, jobs, err)
			}
			if !reflect.DeepEqual(res1, resS) {
				return nil, fmt.Errorf("streaming parity: %s result differs from the in-memory replay (jobs=%d)", pol, jobs)
			}
			if !reflect.DeepEqual(ivs1, ivsS) {
				return nil, fmt.Errorf("streaming parity: %s interval stream differs from the in-memory replay (jobs=%d)", pol, jobs)
			}
			if !reflect.DeepEqual(tel1, telS) {
				return nil, fmt.Errorf("streaming parity: %s telemetry differs from the in-memory replay (jobs=%d)", pol, jobs)
			}
		}
		if err := CheckSimRun(SimRun{
			Model:        opt.Model,
			Policy:       pol,
			NumDisks:     numDisks,
			TPMThreshold: opt.TPMThreshold,
			Requests:     schedReqs,
			DiskOf:       diskOf,
			Result:       res1,
			Intervals:    ivs1,
		}); err != nil {
			return nil, fmt.Errorf("conservation (%s): %w", pol, err)
		}
		rep.Energy[pol] = res1.Energy
		if pol == sim.NoPM {
			baseRes = res1
		} else {
			if err := CheckPolicyDominance(baseRes, res1, opt.Model); err != nil {
				return nil, fmt.Errorf("conservation: %w", err)
			}
			for d := range res1.PerDisk {
				m := &res1.PerDisk[d].Meter
				rep.SpinUps += m.SpinUps
				rep.SpinDowns += m.SpinDowns
				rep.SpeedShifts += m.SpeedShifts
			}
		}
	}

	// The original-order trace must satisfy the same conservation laws (the
	// baseline leg of every paper figure).
	ptOrig, err := sim.PrepareTrace(origReqs, diskOf, numDisks)
	if err != nil {
		return nil, fmt.Errorf("prepare (original): %w", err)
	}
	origRes, origIvs, _, err := runRecorded(ptOrig, opt, sim.NoPM, numDisks, 1)
	if err != nil {
		return nil, fmt.Errorf("sim NoPM (original): %w", err)
	}
	if err := CheckSimRun(SimRun{
		Model:     opt.Model,
		Policy:    sim.NoPM,
		NumDisks:  numDisks,
		Requests:  origReqs,
		DiskOf:    diskOf,
		Result:    origRes,
		Intervals: origIvs,
	}); err != nil {
		return nil, fmt.Errorf("conservation (NoPM, original order): %w", err)
	}
	rep.BaseEnergyOriginal = origRes.Energy
	return rep, nil
}

// CheckEngineParity parses src and asserts the engine-parity family alone:
// the stride-compiled engine and the tree-walk oracle produce bit-identical
// iteration spaces, dependence graphs, disk attributions, disk-reuse
// schedules, and generated request traces (single- and multiprocessor),
// at Jobs=1 and Jobs=jobs (values
// < 1 select 8). It is the cheap core of family 6, exposed separately so
// the FuzzEngineParity target can hammer it without paying for the
// simulator legs of Check.
func CheckEngineParity(src string, jobs int) error {
	if jobs < 1 {
		jobs = 8
	}
	astProg, err := parser.Parse(src)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	prog, err := sema.Analyze(astProg, sema.Options{})
	if err != nil {
		return fmt.Errorf("sema: %w", err)
	}
	lay, err := layout.New(prog, 0)
	if err != nil {
		return fmt.Errorf("layout: %w", err)
	}
	return checkEngineParity(prog, lay, 1e-3, jobs)
}

// sameSpace reports whether two spaces enumerate the identical iteration
// sequence: same nest boundaries and, for every global id, the same nest
// and iteration vector.
func sameSpace(a, b *interp.Space) bool {
	if a.NumIterations() != b.NumIterations() ||
		!reflect.DeepEqual(a.NestFirst, b.NestFirst) {
		return false
	}
	for id := 0; id < a.NumIterations(); id++ {
		if a.Nest(id) != b.Nest(id) ||
			!reflect.DeepEqual(a.IterVec(id), b.IterVec(id)) {
			return false
		}
	}
	return true
}

// checkEngineParity runs the analysis front end under both engines at
// Jobs=1 and Jobs=jobs and requires bit-identical outputs at every stage:
// Space (iteration arenas and NestFirst), DepGraph, per-iteration disk
// attribution, the Fig. 3 schedule, and the program-order and restructured
// request traces under both coalescing models, plus the request traces of
// 2-, 3- and 4-processor loop-parallelized executions (one barrier phase
// per nest).
func checkEngineParity(prog *sema.Program, lay *layout.Layout, computePerIter float64, jobs int) error {
	ctx := context.Background()
	for _, j := range []int{1, jobs} {
		rC, err := core.NewCtx(ctx, prog, lay, core.Options{Jobs: j, Engine: interp.EngineCompiled})
		if err != nil {
			return fmt.Errorf("engine parity: compiled engine (jobs=%d): %w", j, err)
		}
		rI, err := core.NewCtx(ctx, prog, lay, core.Options{Jobs: j, Engine: interp.EngineInterp})
		if err != nil {
			return fmt.Errorf("engine parity: interp engine (jobs=%d): %w", j, err)
		}
		if !sameSpace(rC.Space, rI.Space) {
			return fmt.Errorf("engine parity: iteration space differs between engines (jobs=%d)", j)
		}
		if !reflect.DeepEqual(rC.Graph, rI.Graph) {
			return fmt.Errorf("engine parity: dependence graph differs between engines (jobs=%d)", j)
		}
		for id := 0; id < rC.Space.NumIterations(); id++ {
			if rC.PrimaryDisk(id) != rI.PrimaryDisk(id) ||
				!reflect.DeepEqual(rC.TouchedDisks(id), rI.TouchedDisks(id)) {
				return fmt.Errorf("engine parity: disk attribution of iteration %d differs between engines (jobs=%d)", id, j)
			}
		}
		schedC, err := rC.DiskReuseSchedule()
		if err != nil {
			return fmt.Errorf("engine parity: schedule (compiled, jobs=%d): %w", j, err)
		}
		schedI, err := rI.DiskReuseSchedule()
		if err != nil {
			return fmt.Errorf("engine parity: schedule (interp, jobs=%d): %w", j, err)
		}
		if !reflect.DeepEqual(schedC.Order, schedI.Order) || !reflect.DeepEqual(schedC.Disk, schedI.Disk) {
			return fmt.Errorf("engine parity: disk-reuse schedule differs between engines (jobs=%d)", j)
		}
		for _, gcfg := range []trace.GenConfig{
			{ComputePerIter: computePerIter},
			{ComputePerIter: computePerIter, Coalesce: trace.LRU, CachePages: 8},
		} {
			for name, sched := range map[string]*core.Schedule{
				"original":     rC.OriginalSchedule(),
				"restructured": schedC,
			} {
				reqC, err := trace.Generate(rC, trace.SinglePhase(sched), gcfg)
				if err != nil {
					return fmt.Errorf("engine parity: trace (compiled, %s, jobs=%d): %w", name, j, err)
				}
				reqI, err := trace.Generate(rI, trace.SinglePhase(sched), gcfg)
				if err != nil {
					return fmt.Errorf("engine parity: trace (interp, %s, jobs=%d): %w", name, j, err)
				}
				if !reflect.DeepEqual(reqC, reqI) {
					return fmt.Errorf("engine parity: %s-order trace differs between engines (coalesce=%v, jobs=%d)", name, gcfg.Coalesce, j)
				}
			}
			// Multiprocessor phases: the compiled engine merges each
			// phase's per-processor runs, the oracle stable-sorts.
			for _, procs := range []int{2, 3, 4} {
				a, err := par.LoopParallelize(rC, procs)
				if err != nil {
					return fmt.Errorf("engine parity: loop parallelization (%dP, jobs=%d): %w", procs, j, err)
				}
				phases := trace.NestPhases(rC.Space, a.Subsets(), len(prog.Nests))
				reqC, err := trace.Generate(rC, phases, gcfg)
				if err != nil {
					return fmt.Errorf("engine parity: trace (compiled, %dP, jobs=%d): %w", procs, j, err)
				}
				reqI, err := trace.Generate(rI, phases, gcfg)
				if err != nil {
					return fmt.Errorf("engine parity: trace (interp, %dP, jobs=%d): %w", procs, j, err)
				}
				if !reflect.DeepEqual(reqC, reqI) {
					return fmt.Errorf("engine parity: %dP trace differs between engines (coalesce=%v, jobs=%d)", procs, gcfg.Coalesce, j)
				}
			}
		}
	}
	return nil
}

// runRecorded replays a prepared trace under one policy with interval
// recording and telemetry enabled.
func runRecorded(pt *sim.PreparedTrace, opt Options, pol sim.Policy, numDisks, jobs int) (*sim.Result, []sim.Interval, *obs.SimTelemetry, error) {
	var ivs []sim.Interval
	tel := obs.NewSimTelemetry(numDisks)
	cfg := sim.Config{
		Model:        opt.Model,
		NumDisks:     numDisks,
		Policy:       pol,
		TPMThreshold: opt.TPMThreshold,
		Jobs:         jobs,
		Record:       func(iv sim.Interval) { ivs = append(ivs, iv) },
		Telemetry:    tel,
	}
	res, err := sim.RunPrepared(pt, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, ivs, tel, nil
}

// runStreamed replays the binary-encoded trace through the out-of-core
// path (chunked decode → sim.RunStream) under one policy, with the same
// recording and telemetry as runRecorded.
func runStreamed(encoded []byte, opt Options, pol sim.Policy, numDisks, jobs int, diskOf func(block int64) (int, error)) (*sim.Result, []sim.Interval, *obs.SimTelemetry, error) {
	rd, err := trace.NewReader(bytes.NewReader(encoded))
	if err != nil {
		return nil, nil, nil, err
	}
	defer rd.Close()
	var ivs []sim.Interval
	tel := obs.NewSimTelemetry(numDisks)
	cfg := sim.Config{
		Model:        opt.Model,
		NumDisks:     numDisks,
		Policy:       pol,
		TPMThreshold: opt.TPMThreshold,
		Jobs:         jobs,
		Record:       func(iv sim.Interval) { ivs = append(ivs, iv) },
		Telemetry:    tel,
	}
	res, err := sim.RunStream(rd, diskOf, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, ivs, tel, nil
}

// reqKey identifies a request up to reordering: restructuring may change
// when and from which processor clock a page is touched, but never which
// disk, page, size, or direction.
type reqKey struct {
	disk  int
	block int64
	size  int64
	write bool
}

// sameRequestMultiset checks that two traces touch exactly the same
// per-disk request multiset.
func sameRequestMultiset(a, b []trace.Request, lay *layout.Layout) error {
	if len(a) != len(b) {
		return fmt.Errorf("request counts differ: %d vs %d", len(a), len(b))
	}
	counts := make(map[reqKey]int, len(a))
	key := func(r trace.Request) (reqKey, error) {
		d, err := lay.PageDisk(r.Block)
		if err != nil {
			return reqKey{}, err
		}
		return reqKey{disk: d, block: r.Block, size: r.Size, write: r.Write}, nil
	}
	for _, r := range a {
		k, err := key(r)
		if err != nil {
			return err
		}
		counts[k]++
	}
	for _, r := range b {
		k, err := key(r)
		if err != nil {
			return err
		}
		counts[k]--
		if counts[k] < 0 {
			return fmt.Errorf("restructured trace has an extra request for disk %d block %d (size %d, write %v)",
				k.disk, k.block, k.size, k.write)
		}
	}
	for k, c := range counts {
		if c != 0 {
			return fmt.Errorf("restructured trace dropped %d request(s) for disk %d block %d", c, k.disk, k.block)
		}
	}
	return nil
}
