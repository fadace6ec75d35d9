// Package sim is the trace-driven disk power simulator of §7.1: it replays
// an I/O request trace against a bank of simulated disks (one per I/O
// node), applies a power-management policy — none, TPM spin-down, or DRPM
// dynamic speed-setting — and reports disk energy and disk I/O time.
//
// Policies:
//
//   - NoPM: the disk idles at full speed between requests. This is the
//     "Base" version all paper numbers are normalized to.
//   - TPM (traditional power management, Douglis et al. [12]): after the
//     break-even threshold of idleness the disk spins down; the next
//     request pays the spin-up latency and energy.
//   - DRPM (dynamic RPM, Gurumurthi et al. [13]): the disk steps its
//     rotational speed down one level at a time while idle, bounded below
//     by a floor the controller adjusts per n-request window based on the
//     observed average response time versus the full-speed estimate.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"strconv"

	"diskreuse/internal/conc"
	"diskreuse/internal/disk"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/power"
	"diskreuse/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	Model    disk.Model
	NumDisks int
	Policy   Policy

	// TPMThreshold is the idleness threshold before spin-down; zero
	// selects the model's break-even time (Table 1).
	TPMThreshold float64
	// DRPMWindow is the controller window in requests (Table 1: 100).
	DRPMWindow int
	// DRPMRaise is the response-time ratio (observed mean over full-speed
	// estimate) above which the controller raises the operating speed one
	// level. Zero selects the default.
	DRPMRaise float64
	// DRPMLower is the ratio below which the controller lowers the
	// operating speed one level (slack available). Zero selects the
	// default; a negative value disables operational lowering entirely,
	// leaving idle-time coasting as the only way down. When positive it
	// must be < DRPMRaise. The defaults bracket the one-level-down service
	// ratio (≈1.10 for 4-KiB pages), pinning the operational equilibrium
	// at a single step below full speed — the modest savings/penalty
	// balance reported for DRPM on unmodified codes.
	DRPMLower float64
	// DRPMDwell is how long a DRPM disk lingers at a speed level during an
	// idle period before coasting further down.
	DRPMDwell float64

	// ClosedLoop selects the replay model. The default (false) is the
	// paper's methodology: the simulator "is driven by externally-provided
	// disk I/O request traces" — arrival times are fixed, so a policy-
	// induced stall delays that disk's queue but never feeds back into the
	// issue stream. With ClosedLoop true, each processor re-issues its
	// requests only as earlier ones complete (per AsyncDepth), modeling a
	// blocking application; stalls then propagate and can cascade across
	// disks.
	ClosedLoop bool

	// ThinkEstimate is the per-request service estimate the trace
	// generator used for its clocks; the closed-loop replay recovers each
	// request's think time as the arrival gap minus this estimate. Zero
	// selects the full-speed service time of a 4-KiB page.
	ThinkEstimate float64

	// AsyncDepth is the number of outstanding requests a processor may
	// have in flight before blocking on the oldest (closed-loop replay
	// only) — the prefetch depth of the parallel I/O library. Zero selects
	// DefaultAsyncDepth; 1 means fully synchronous I/O.
	AsyncDepth int

	// Hints are compiler-inserted proactive spin-up directives (the [25]
	// extension): a TPM disk that spun down begins its spin-up at the hint
	// time instead of waiting for the next request, hiding some or all of
	// the wake-up latency. Ignored by NoPM and DRPM.
	Hints []trace.Hint

	// Record, when non-nil, receives every state interval of every disk as
	// the simulation accounts it (used by the timeline visualization).
	// Intervals for one disk are emitted in increasing time order.
	Record func(iv Interval)

	// Telemetry, when non-nil, accumulates per-disk event telemetry (time
	// in state, spin-up/down and speed-shift counts, idle-period
	// histograms) from the same interval stream Record sees. It must be
	// sized for the run's disk count. Unlike Record, telemetry is fed
	// directly from the sharded per-disk replays — per-disk state is
	// disjoint, so no buffering is needed and the accumulated telemetry is
	// identical at every Jobs value.
	Telemetry *obs.SimTelemetry

	// Span, when non-nil, receives one "disk-replay" child span per disk
	// of the open-loop replay (or one "closed-replay" child for the
	// closed-loop model), so a trace export shows the simulator's fan-out.
	// A worker replays its disks in one sweep, so each of their spans
	// covers that whole sweep.
	Span *obs.Span

	// Attribution, when non-nil, accumulates per-(disk, processor)
	// service attribution — requests, busy time, response time — fed from
	// the replay loops (per-disk rows, so it needs no locking and is
	// identical at every Jobs value). It must be sized for the run's disk
	// count, and every request's processor id must lie inside its
	// processor range. AttributeEnergy turns the accumulated shares into
	// per-tenant energy.
	Attribution *obs.ProcAttribution

	// Metrics, when non-nil, receives live replay metrics: the
	// requests-replayed counter, per-disk state occupancy and current-state
	// series, spin/shift event counters, and the energy-so-far gauge —
	// readable mid-run over the monitoring endpoint while Record, Telemetry,
	// and Attribution only settle at the end. Publishing is strictly
	// observe-only (the simulator never reads a metric back), so enabling it
	// cannot perturb the bit-identical deterministic results contract.
	Metrics *metrics.Registry

	// RAIDWidth is the number of physical disks behind each I/O node —
	// the RAID-level striping of Fig. 1, which is hidden from the compiler
	// (power is still managed at I/O-node granularity, as in the paper).
	// Width w lets a node service w requests concurrently and multiplies
	// its power draw and transition energies by w. Zero or 1 models one
	// disk per node, the paper's default evaluation setup. Negative widths
	// are rejected.
	RAIDWidth int

	// Jobs bounds how many disks replay concurrently in the open-loop
	// model. The open-loop replay is feedback-free across disks (a
	// policy-induced stall delays that disk's queue but never feeds back
	// into the issue stream), so the per-disk replays are independent and
	// fan out over a bounded worker pool. Zero selects
	// runtime.GOMAXPROCS(0), with a small-trace cutoff that keeps tiny
	// replays serial; 1 forces the fully serial path; negative values are
	// rejected. Results are bit-identical at every Jobs value: each disk
	// writes its own stats slot, and the per-disk partial response-time
	// sums, makespans, and interval logs are folded in disk order — the
	// same float summation order and interval order as the serial path.
	// The closed-loop replay is inherently cross-disk sequential (stalls
	// propagate through the shared issue heap) and ignores Jobs.
	Jobs int
}

// StateKind classifies a disk's activity during an interval.
type StateKind int

// Disk states for recorded intervals.
const (
	StateBusy StateKind = iota
	StateIdle
	StateStandby
	StateTransition
)

func (k StateKind) String() string {
	switch k {
	case StateBusy:
		return "busy"
	case StateIdle:
		return "idle"
	case StateStandby:
		return "standby"
	case StateTransition:
		return "transition"
	}
	return fmt.Sprintf("StateKind(%d)", int(k))
}

// Interval is one recorded span of disk activity.
type Interval struct {
	Disk     int
	From, To float64
	Kind     StateKind
	RPM      int // rotational speed during the interval (0 in standby)
}

// DefaultAsyncDepth is the default per-processor outstanding-request
// window.
const DefaultAsyncDepth = 8

// Default DRPM controller constants. DRPMRaise/DRPMLower bracket the
// response-time degradation the controller tolerates; the defaults let the
// disk trade roughly one speed level's worth of service-time increase for
// its quadratic power reduction, matching the modest savings/penalty
// balance reported for DRPM on unmodified codes. The coast dwell is of the
// same order as the TPM break-even time: coasting below the operating
// point costs a multi-second recovery ramp when the next burst arrives, so
// it must only happen during idleness long enough to amortize it.
const (
	DefaultDRPMRaise = 1.15
	DefaultDRPMLower = 1.07
	DefaultDRPMDwell = 0.7
)

// queuePressureFactor is the queue-wait (in full-speed service times) past
// which a DRPM disk abandons gradual control and ramps to full speed even
// mid-burst, paying the transition stall — the high-watermark response of
// [13]. It is deliberately large: changing speed while requests queue
// stalls the disk for seconds, so it must amortize over a long burst.
const queuePressureFactor = 100

// Policy selects the power-management scheme.
type Policy int

const (
	// NoPM applies no power management.
	NoPM Policy = iota
	// TPM is threshold-based spin-down.
	TPM
	// DRPM is multi-speed dynamic RPM management.
	DRPM
)

func (p Policy) String() string {
	switch p {
	case NoPM:
		return "NoPM"
	case TPM:
		return "TPM"
	case DRPM:
		return "DRPM"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// DiskStats reports one disk's simulation outcome.
type DiskStats struct {
	Requests int
	// BusyTime is the disk's total service time — the paper's "disk I/O
	// time": it grows when DRPM services at reduced speed and is barely
	// affected by TPM transitions.
	BusyTime float64
	// ResponseTime is the sum of request response times (completion minus
	// issue), including queueing and wake-up delays.
	ResponseTime float64
	// LastCompletion is when the disk finished its final request.
	LastCompletion float64
	// Meter holds the energy/state accounting.
	Meter power.Meter
	// GapsOverBreakEven counts idle gaps long enough for a TPM disk to
	// profit from spinning down.
	GapsOverBreakEven int
	// LongestGap is the longest idle gap observed (seconds).
	LongestGap float64
}

// Result is the outcome of a simulation run.
type Result struct {
	PerDisk []DiskStats
	Energy  float64 // total J across disks
	// IOTime is the total disk I/O (busy) time across disks — the
	// performance metric of Figures 10(a)/10(b).
	IOTime float64
	// ResponseTime is the total request response time (a secondary,
	// latency-oriented metric).
	ResponseTime float64
	Makespan     float64 // time of the last completion (s)
	Requests     int
	Policy       Policy
}

// procStream is one processor's request sequence with recovered think
// times: think[k] is the compute delay between completing request k-1 and
// issuing request k. The requests themselves live in the prepared trace;
// idx holds their positions in its arrival order.
type procStream struct {
	proc  int       // processor id (the heap tie-break)
	idx   []int     // indices into the prepared trace's sorted order
	think []float64 // recovered compute gaps, one per request
	next  int       // position in idx of the next request to issue
	ready float64   // time the processor can issue it
	// completions is a ring of the last AsyncDepth completion times; a new
	// request blocks on the completion AsyncDepth requests back.
	completions []float64
}

// streamHeap orders processors by the issue time of their next request,
// breaking exact-time ties by processor id so the replay order depends
// only on the trace, never on the heap's insertion history.
type streamHeap []*procStream

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].proc < h[j].proc
}
func (h streamHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)   { *h = append(*h, x.(*procStream)) }
func (h *streamHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run replays reqs against cfg.NumDisks disks. diskOf maps a request's
// block number to its disk using the striping information, exactly as the
// paper's simulator consumes externally provided striping parameters.
//
// Run is PrepareTrace followed by RunPrepared; callers replaying the same
// trace under several configurations (the harness's 5–7 policy versions
// per app) should prepare once and call RunPrepared per version instead.
// reqs is never mutated.
func Run(reqs []trace.Request, diskOf func(block int64) (int, error), cfg Config) (*Result, error) {
	pt, err := PrepareTrace(reqs, diskOf, cfg.NumDisks)
	if err != nil {
		return nil, err
	}
	return RunPrepared(pt, cfg)
}

// RunPrepared replays a prepared trace under one configuration. The
// default (open-loop) replay is the paper's trace-driven methodology with
// fixed arrival times; cfg.ClosedLoop instead re-issues each processor's
// requests only as earlier ones complete. Disks service requests FIFO in
// issue order either way.
//
// cfg.NumDisks zero adopts the prepared trace's disk count; any other
// value must match it. RunPrepared only reads pt, so concurrent calls may
// share one PreparedTrace.
func RunPrepared(pt *PreparedTrace, cfg Config) (*Result, error) {
	cfg, err := cfg.normalize(pt.numDisks)
	if err != nil {
		return nil, err
	}
	if attr := cfg.Attribution; attr != nil && len(pt.sorted) > 0 {
		if p := pt.procLo; p < 0 {
			return nil, procRangeError(attr, p)
		}
		if p := pt.procHi; p >= attr.NumProcs() {
			return nil, procRangeError(attr, p)
		}
	}

	res := &Result{
		PerDisk:  make([]DiskStats, cfg.NumDisks),
		Requests: len(pt.sorted),
		Policy:   cfg.Policy,
	}
	states := newStates(cfg, res)
	if cfg.ClosedLoop {
		sp := cfg.Span.Child("closed-replay")
		runClosedLoop(pt, cfg, states, res)
		sp.End()
	} else {
		if err := runOpenLoop(pt, cfg, states, res); err != nil {
			return nil, err
		}
	}
	finishRun(cfg, states, res)
	return res, nil
}

// procRangeError reports a processor id outside an Attribution's range.
func procRangeError(attr *obs.ProcAttribution, proc int) error {
	return fmt.Errorf("sim: Attribution sized for %d processors but the trace has processor id %d (size it with obs.NewProcAttribution)",
		attr.NumProcs(), proc)
}

// newStates builds the per-disk simulators and their energy meters for one
// run: per-disk state plus the meter model scaling for RAID-level striping
// (Fig. 1) — each I/O node's meter accounts for all of its physical disks,
// so power draws and transition energies scale with the width while the
// timing model stays per physical disk.
func newStates(cfg Config, res *Result) []*diskSim {
	meter := newMeterFor(cfg)
	lm := newLiveMetrics(cfg.Metrics, cfg.NumDisks)
	states := make([]*diskSim, cfg.NumDisks)
	for d := 0; d < cfg.NumDisks; d++ {
		res.PerDisk[d].Meter = *meter
		states[d] = newDiskSim(cfg)
		states[d].id = d
		states[d].lm = lm
	}
	for _, h := range cfg.Hints {
		states[h.Disk].hints = append(states[h.Disk].hints, h.Time)
	}
	return states
}

// finishRun accounts the tail after the replay: every disk stays powered
// until the application's last request completes, with the policy applied
// to the final gap (no spin-up at the end), then the per-disk energies
// fold into the totals and the telemetry's still-open request-free tail
// periods close.
func finishRun(cfg Config, states []*diskSim, res *Result) {
	for d := 0; d < cfg.NumDisks; d++ {
		st := &res.PerDisk[d]
		states[d].finish(res.Makespan-states[d].clock, st)
		res.Energy += st.Meter.Total()
		res.IOTime += st.BusyTime
	}
	if len(states) > 0 && states[0].lm != nil {
		states[0].lm.energy.Set(res.Energy)
	}
	cfg.Telemetry.Finish()
}

// normalize validates the configuration and fills defaults, returning the
// resolved copy. traceDisks is the prepared trace's disk count, or 0 for
// the streaming path where the trace carries no prepared attribution (the
// caller must then set NumDisks explicitly). Every Config field is checked
// here, so a bad value surfaces as a clear error from RunPrepared or
// RunStream instead of a panic or silent misbehavior deep inside the
// replay.
func (cfg Config) normalize(traceDisks int) (Config, error) {
	if err := cfg.Model.Validate(); err != nil {
		return cfg, err
	}
	if cfg.NumDisks < 0 {
		return cfg, fmt.Errorf("sim: NumDisks %d must be >= 0 (0 adopts the prepared trace's disk count)", cfg.NumDisks)
	}
	if cfg.NumDisks == 0 {
		cfg.NumDisks = traceDisks
	}
	if cfg.NumDisks == 0 {
		return cfg, fmt.Errorf("sim: the streaming replay needs an explicit NumDisks (no prepared trace to adopt it from)")
	}
	if traceDisks > 0 && cfg.NumDisks != traceDisks {
		return cfg, fmt.Errorf("sim: Config.NumDisks %d does not match the prepared trace's %d disks", cfg.NumDisks, traceDisks)
	}
	if cfg.Jobs < 0 {
		return cfg, fmt.Errorf("sim: Jobs %d must be >= 0 (0 selects GOMAXPROCS, 1 forces the serial path)", cfg.Jobs)
	}
	if cfg.RAIDWidth < 0 {
		return cfg, fmt.Errorf("sim: RAIDWidth %d must be >= 0 (0 or 1 models one disk per I/O node)", cfg.RAIDWidth)
	}
	if cfg.AsyncDepth < 0 {
		return cfg, fmt.Errorf("sim: AsyncDepth %d must be >= 0 (0 selects the default depth %d)", cfg.AsyncDepth, DefaultAsyncDepth)
	}
	if cfg.TPMThreshold < 0 {
		return cfg, fmt.Errorf("sim: TPMThreshold %v must be >= 0 (0 selects the model's break-even time)", cfg.TPMThreshold)
	}
	if cfg.DRPMWindow < 0 {
		return cfg, fmt.Errorf("sim: DRPMWindow %d must be >= 0 (0 selects the default window of 100 requests)", cfg.DRPMWindow)
	}
	if cfg.DRPMRaise < 0 {
		return cfg, fmt.Errorf("sim: DRPMRaise %v must be >= 0 (0 selects the default %v)", cfg.DRPMRaise, DefaultDRPMRaise)
	}
	if cfg.DRPMDwell < 0 {
		return cfg, fmt.Errorf("sim: DRPMDwell %v must be >= 0 (0 selects the default %v)", cfg.DRPMDwell, DefaultDRPMDwell)
	}
	if cfg.ThinkEstimate < 0 {
		return cfg, fmt.Errorf("sim: ThinkEstimate %v must be >= 0 (0 selects the full-speed service time of a 4-KiB page)", cfg.ThinkEstimate)
	}
	if cfg.Telemetry != nil && cfg.Telemetry.NumDisks() != cfg.NumDisks {
		return cfg, fmt.Errorf("sim: Telemetry sized for %d disks but the run has %d (size it with obs.NewSimTelemetry(NumDisks))", cfg.Telemetry.NumDisks(), cfg.NumDisks)
	}
	if cfg.Attribution != nil && cfg.Attribution.NumDisks() != cfg.NumDisks {
		return cfg, fmt.Errorf("sim: Attribution sized for %d disks but the run has %d (size it with obs.NewProcAttribution(NumDisks, NumProcs))", cfg.Attribution.NumDisks(), cfg.NumDisks)
	}
	// advanceGap consumes each disk's hints with a forward-only cursor, so
	// out-of-order hints would be silently dropped — reject them instead.
	if len(cfg.Hints) > 0 {
		last := make([]float64, cfg.NumDisks)
		seen := make([]bool, cfg.NumDisks)
		for _, h := range cfg.Hints {
			if h.Disk < 0 || h.Disk >= cfg.NumDisks {
				return cfg, fmt.Errorf("sim: hint for disk %d outside 0..%d", h.Disk, cfg.NumDisks-1)
			}
			if seen[h.Disk] && h.Time < last[h.Disk] {
				return cfg, fmt.Errorf("sim: hints for disk %d must be in nondecreasing time order (%v after %v)", h.Disk, h.Time, last[h.Disk])
			}
			last[h.Disk], seen[h.Disk] = h.Time, true
		}
	}

	if cfg.TPMThreshold == 0 {
		cfg.TPMThreshold = cfg.Model.BreakEven
	}
	if cfg.DRPMWindow == 0 {
		cfg.DRPMWindow = 100
	}
	if cfg.DRPMRaise == 0 {
		cfg.DRPMRaise = DefaultDRPMRaise
	}
	if cfg.DRPMLower == 0 {
		cfg.DRPMLower = DefaultDRPMLower
	}
	if cfg.DRPMLower > 0 && cfg.DRPMLower >= cfg.DRPMRaise {
		return cfg, fmt.Errorf("sim: DRPMLower %v must be below DRPMRaise %v", cfg.DRPMLower, cfg.DRPMRaise)
	}
	if cfg.DRPMDwell == 0 {
		cfg.DRPMDwell = DefaultDRPMDwell
	}
	if cfg.ThinkEstimate == 0 {
		cfg.ThinkEstimate = cfg.Model.FullSpeedService(4096)
	}
	if cfg.AsyncDepth == 0 {
		cfg.AsyncDepth = DefaultAsyncDepth
	}
	if cfg.RAIDWidth == 0 {
		cfg.RAIDWidth = 1
	}
	return cfg, nil
}

// minParallelRequests is the auto-mode (Jobs 0) cutoff below which the
// open-loop replay stays serial: starting workers that each sweep the
// trace costs more than replaying a tiny trace. An explicit Jobs >= 2
// always shards, so tests can pin the parallel path on small inputs; the
// result is bit-identical either way.
const minParallelRequests = 4096

// runOpenLoop replays the trace with fixed arrival times: each disk
// services its requests FIFO in arrival order (the paper's trace-driven
// methodology). The open-loop model is feedback-free across disks — a
// policy-induced stall delays that disk's queue but never the issue
// stream — so the per-disk replays are independent and fan out over a
// bounded worker pool (Config.Jobs): the same disk-level independence the
// paper exploits for power management, reused for simulation speed.
//
// The disks are split into contiguous groups, one per worker. Each worker
// sweeps the whole trace in arrival order and services the requests of its
// own disks, so it reads the trace sequentially instead of gathering one
// disk's requests at a time; a serial replay is a single sweep. Each disk
// has its own partial — a response-time sum, a makespan, and (when a
// recorder is configured) a buffered interval log — kept in its worker's
// own slice, so workers share no cache lines. The reducer folds the
// partials in disk order — the same float summation order and the same
// interval order as a disk-major loop — so the Result and the Record
// stream are bit-identical at any worker count.
func runOpenLoop(pt *PreparedTrace, cfg Config, states []*diskSim, res *Result) error {
	type partial struct {
		resp     float64
		makespan float64
		ivs      []Interval
	}
	parts := make([]partial, pt.numDisks)
	record := cfg.Record
	attr := cfg.Attribution
	jobs := cfg.Jobs
	if jobs == 0 && len(pt.sorted) < minParallelRequests {
		jobs = 1
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	groups := conc.Chunks(pt.numDisks, jobs)
	err := conc.ForEach(context.Background(), len(groups), jobs, func(_ context.Context, g int) error {
		lo, hi := groups[g][0], groups[g][1]
		local := make([]partial, hi-lo)
		var spans []*obs.Span
		for d := lo; d < hi; d++ {
			if cfg.Span != nil {
				sp := cfg.Span.Child("disk-replay")
				sp.SetAttr("disk", strconv.Itoa(d))
				spans = append(spans, sp)
			}
			if record != nil {
				// Buffer this disk's intervals; the reducer replays the
				// buffers in disk order, so the recorder sees the exact
				// serial stream from a single goroutine.
				buf := &local[d-lo].ivs
				states[d].cfg.Record = func(iv Interval) { *buf = append(*buf, iv) }
			}
		}
		var served reqCounter
		if states[0].lm != nil {
			served.c = states[0].lm.requests
		}
		for i, d32 := range pt.disk {
			d := int(d32)
			if d < lo || d >= hi {
				continue
			}
			r, st, pd := &pt.sorted[i], &res.PerDisk[d], &local[d-lo]
			busy0 := st.BusyTime
			completion, rt := states[d].service(r.Arrival, r.Size, st)
			served.inc()
			pd.resp += rt
			if completion > pd.makespan {
				pd.makespan = completion
			}
			if attr != nil {
				attr.Observe(d, r.Proc, st.BusyTime-busy0, rt)
			}
		}
		served.flush()
		copy(parts[lo:hi], local)
		for d := lo; d < hi; d++ {
			if record != nil {
				// The tail accounting after the replay emits directly.
				states[d].cfg.Record = record
			}
			if spans != nil {
				spans[d-lo].SetAttr("requests", strconv.Itoa(res.PerDisk[d].Requests))
				spans[d-lo].End()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for d := range parts {
		res.ResponseTime += parts[d].resp
		if parts[d].makespan > res.Makespan {
			res.Makespan = parts[d].makespan
		}
		for _, iv := range parts[d].ivs {
			record(iv)
		}
	}
	return nil
}

// runClosedLoop replays the trace with per-processor feedback: each
// processor issues its next request only after its compute gap and subject
// to the AsyncDepth outstanding-request window. Stalls propagate through
// the shared issue heap and can cascade across disks, so this path stays
// sequential — but it reuses the prepared attribution: the issue loop
// reads disks from the prepared labels and processor streams from the
// prepared grouping, with no diskOf calls or map lookups per request.
func runClosedLoop(pt *PreparedTrace, cfg Config, states []*diskSim, res *Result) {
	sorted := pt.sorted
	procIDs, procReqs := pt.procStreams()
	// Think times depend on cfg.ThinkEstimate, so they are recovered per
	// run — into one flat backing carved per stream, reusing the prepared
	// per-processor index lists.
	streams := make([]procStream, len(procIDs))
	thinkBacking := make([]float64, len(sorted))
	ringBacking := make([]float64, cfg.AsyncDepth*len(procIDs))
	off := 0
	for k, p := range procIDs {
		idx := procReqs[k]
		think := thinkBacking[off : off+len(idx)]
		off += len(idx)
		think[0] = sorted[idx[0]].Arrival
		for j := 1; j < len(idx); j++ {
			t := sorted[idx[j]].Arrival - sorted[idx[j-1]].Arrival - cfg.ThinkEstimate
			if t < 0 {
				t = 0
			}
			think[j] = t
		}
		streams[k] = procStream{
			proc:        p,
			idx:         idx,
			think:       think,
			ready:       think[0],
			completions: ringBacking[k*cfg.AsyncDepth : (k+1)*cfg.AsyncDepth],
		}
	}

	// The heap never outgrows the processor count: Pop shrinks the slice
	// and Push re-appends within the same backing array, so sizing the
	// capacity once keeps the issue loop allocation-free.
	hs := make(streamHeap, 0, len(streams))
	h := &hs
	for k := range streams {
		heap.Push(h, &streams[k])
	}
	var served reqCounter
	if len(states) > 0 && states[0].lm != nil {
		served.c = states[0].lm.requests
	}
	defer served.flush()
	for h.Len() > 0 {
		ps := heap.Pop(h).(*procStream)
		k := ps.next
		i := ps.idx[k]
		r, d := &sorted[i], int(pt.disk[i])
		issue := ps.ready
		st := &res.PerDisk[d]
		busy0 := st.BusyTime
		completion, resp := states[d].service(issue, r.Size, st)
		served.inc()
		if attr := cfg.Attribution; attr != nil {
			attr.Observe(d, r.Proc, st.BusyTime-busy0, resp)
		}
		res.ResponseTime += resp
		if completion > res.Makespan {
			res.Makespan = completion
		}
		ps.completions[k%cfg.AsyncDepth] = completion
		ps.next++
		if ps.next < len(ps.idx) {
			// The processor issues the next request after its compute gap,
			// but no sooner than the completion AsyncDepth requests back
			// (the outstanding window is full until then).
			ready := issue + ps.think[ps.next]
			if ps.next >= cfg.AsyncDepth {
				if w := ps.completions[(ps.next-cfg.AsyncDepth)%cfg.AsyncDepth]; w > ready {
					ready = w
				}
			}
			ps.ready = ready
			heap.Push(h, ps)
		}
	}
}

// diskSim simulates one disk.
type diskSim struct {
	cfg   Config
	tel   *obs.SimTelemetry // telemetry sink; nil when disabled
	lm    *liveMetrics      // live metrics sink; nil when disabled
	m     disk.Model
	clock float64 // completion time of the last serviced request

	rpm        int // current rotational speed
	target     int // DRPM controller's chosen operating speed
	winCount   int
	winResp    float64
	winFullEst float64

	// hints holds pending proactive spin-up times (ascending); hintIdx is
	// the next unconsumed one.
	hints   []float64
	hintIdx int

	id int // disk index, for recorded intervals

	// sub holds the busy-until time of each physical disk behind this I/O
	// node (RAID-level striping); length is Config.RAIDWidth.
	sub []float64

	// Per-request memos (see memo.go): the service time at the current
	// speed, the full-speed estimate, and the meter's state powers.
	svc, full svcMemo
	pow       powerMemo
}

func newDiskSim(cfg Config) *diskSim {
	return &diskSim{
		cfg:    cfg,
		tel:    cfg.Telemetry,
		m:      cfg.Model,
		rpm:    cfg.Model.RPMMax,
		target: cfg.Model.RPMMax,
		sub:    make([]float64, cfg.RAIDWidth),
		svc:    newSvcMemo(),
		full:   newSvcMemo(),
		pow:    newPowerMemo(),
	}
}

// syncSubs clamps every physical disk's busy-until time up to the node
// clock (after a node-wide stall such as a speed shift).
func (ds *diskSim) syncSubs() {
	for k := range ds.sub {
		if ds.sub[k] < ds.clock {
			ds.sub[k] = ds.clock
		}
	}
}

// diskStateOf maps the simulator's interval kinds onto the observability
// layer's disk states. The enums are kept separate (obs must not import
// sim) and mapped explicitly so a change in either is a compile/test error
// here, not a silent misclassification.
func diskStateOf(k StateKind) obs.DiskState {
	switch k {
	case StateBusy:
		return obs.DiskBusy
	case StateIdle:
		return obs.DiskIdle
	case StateStandby:
		return obs.DiskStandby
	case StateTransition:
		return obs.DiskTransition
	}
	panic(fmt.Sprintf("sim: unmapped state kind %d", int(k)))
}

// The charge helpers account a state span in the energy meter and, when a
// recorder or telemetry sink is configured, emit the corresponding
// interval. Telemetry is fed directly — even from sharded replays, since
// its state is per disk — while Record may be swapped for a per-disk
// buffer by the parallel open-loop path.

func (ds *diskSim) emit(kind StateKind, from, to float64, rpm int) {
	if to <= from {
		return
	}
	if ds.tel != nil {
		ds.tel.Observe(ds.id, diskStateOf(kind), from, to, rpm)
	}
	if ds.lm != nil {
		ds.lm.observeInterval(ds.id, kind, to-from)
	}
	if ds.cfg.Record != nil {
		ds.cfg.Record(Interval{Disk: ds.id, From: from, To: to, Kind: kind, RPM: rpm})
	}
}

func (ds *diskSim) chargeIdle(st *DiskStats, from, dt float64, rpm int) {
	st.Meter.IdleAt(dt, ds.pow.at(&st.Meter.M, rpm).idle)
	ds.emit(StateIdle, from, from+dt, rpm)
}

func (ds *diskSim) chargeActive(st *DiskStats, from, dt float64, rpm int) {
	st.Meter.ActiveAt(dt, ds.pow.at(&st.Meter.M, rpm).active)
	ds.emit(StateBusy, from, from+dt, rpm)
}

func (ds *diskSim) chargeStandby(st *DiskStats, from, dt float64) {
	st.Meter.Standby(dt)
	ds.emit(StateStandby, from, from+dt, 0)
}

func (ds *diskSim) chargeSpinDown(st *DiskStats, from float64) {
	st.Meter.SpinDown()
	if ds.lm != nil {
		ds.lm.spinDowns.Inc()
	}
	ds.emit(StateTransition, from, from+ds.m.SpinDownTime, 0)
}

func (ds *diskSim) chargeSpinUp(st *DiskStats, from float64) {
	st.Meter.SpinUp()
	if ds.lm != nil {
		ds.lm.spinUps.Inc()
	}
	ds.emit(StateTransition, from, from+ds.m.SpinUpTime, ds.m.RPMMax)
}

// chargeShift accounts a DRPM speed change and returns its duration.
func (ds *diskSim) chargeShift(st *DiskStats, from float64, fromRPM, toRPM int) float64 {
	st.Meter.Shift(fromRPM, toRPM)
	if ds.lm != nil {
		ds.lm.shifts.Inc()
	}
	dt := power.ShiftTime(ds.m, fromRPM, toRPM)
	ds.emit(StateTransition, from, from+dt, toRPM)
	return dt
}

// service handles one request issued at the given time and returns its
// completion time and response time (completion minus issue).
func (ds *diskSim) service(issue float64, size int64, st *DiskStats) (completion, resp float64) {
	st.Requests++
	// Idleness is an I/O-node property: the node is idle only when every
	// physical disk behind it has finished (ds.clock is the latest such
	// completion). Power management acts at node granularity (§2).
	nodeReady := issue
	if issue > ds.clock {
		gap := issue - ds.clock
		if gap > st.LongestGap {
			st.LongestGap = gap
		}
		if gap >= ds.m.BreakEven {
			st.GapsOverBreakEven++
		}
		nodeReady = ds.advanceGap(gap, st)
		ds.syncSubs()
	}
	// Dispatch to the least-loaded physical disk (RAID-level striping).
	k := 0
	for i := range ds.sub {
		if ds.sub[i] < ds.sub[k] {
			k = i
		}
	}
	dispatch := nodeReady
	if ds.sub[k] > dispatch {
		dispatch = ds.sub[k] // queueing delay behind earlier requests
	}
	// Queueing wait that full-speed service would also (approximately)
	// have suffered; the DRPM controller compares against it so it reacts
	// to its own slowdown, not to offered load.
	loadWait := dispatch - issue
	// DRPM queue-pressure ramp: a request that has waited many service
	// times in the queue means the disk is far too slow for the offered
	// load — ramp straight to full speed (the watermark mechanism of [13])
	// instead of waiting out the response-time window.
	if ds.cfg.Policy == DRPM && ds.rpm < ds.m.RPMMax {
		if loadWait > queuePressureFactor*ds.fullSpeedService(size) {
			old := ds.rpm
			ds.rpm = ds.m.RPMMax
			ds.target = ds.m.RPMMax
			ds.clock += ds.chargeShift(st, ds.clock, old, ds.rpm)
			ds.syncSubs()
			if ds.sub[k] > dispatch {
				dispatch = ds.sub[k]
			}
		}
	}
	svc := ds.serviceTime(size, ds.rpm)
	ds.chargeActive(st, dispatch, svc, ds.rpm)
	completion = dispatch + svc // the data is ready for the processor here
	ds.sub[k] = completion
	if completion > ds.clock {
		ds.clock = completion
	}
	resp = completion - issue
	st.BusyTime += svc
	st.ResponseTime += resp
	st.LastCompletion = ds.clock
	ds.observe(resp, loadWait, size)
	// A DRPM disk running below the controller's operating point recovers
	// one level after servicing (a sustained burst keeps pulling it up);
	// the shift occupies the disk but the already-delivered data does not
	// wait for it.
	if ds.cfg.Policy == DRPM && ds.rpm < ds.target {
		next := ds.m.ClampRPM(ds.rpm + ds.m.RPMStep)
		ds.clock += ds.chargeShift(st, ds.clock, ds.rpm, next)
		ds.syncSubs()
		ds.rpm = next
		st.LastCompletion = ds.clock
	}
	return completion, resp
}

// finish accounts the idle tail from the disk's last completion to the
// application end.
func (ds *diskSim) finish(gap float64, st *DiskStats) {
	if gap <= 0 {
		return
	}
	if gap > st.LongestGap {
		st.LongestGap = gap
	}
	ds.advanceGapTail(gap, st)
}

// advanceGap consumes an idle gap according to the policy and returns the
// time service can begin (gap start time is ds.clock; the returned time is
// ds.clock + gap + any wake-up penalty).
func (ds *diskSim) advanceGap(gap float64, st *DiskStats) float64 {
	begin := ds.clock
	switch ds.cfg.Policy {
	case NoPM:
		ds.chargeIdle(st, begin, gap, ds.m.RPMMax)
		return begin + gap

	case TPM:
		thr := ds.cfg.TPMThreshold
		arrivalAt := begin + gap
		// Drop hints that this gap has already passed by.
		for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] < begin {
			ds.hintIdx++
		}
		if gap < thr {
			// The disk never spins down; in-gap hints are redundant.
			for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
				ds.hintIdx++
			}
			ds.chargeIdle(st, begin, gap, ds.m.RPMMax)
			return begin + gap
		}
		// Idle until the threshold fires, spin down, stand by until either
		// a proactive hint or the request itself triggers the spin-up;
		// service starts once the spin-up completes (and never before the
		// spin-down finished, for gaps barely over the threshold).
		ds.chargeIdle(st, begin, thr, ds.m.RPMMax)
		ds.chargeSpinDown(st, begin+thr)
		spinDownDone := begin + thr + ds.m.SpinDownTime
		wakeStart := arrivalAt
		if ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
			// Proactive early wake; a directive arriving while the
			// spin-down is still completing takes effect right after it.
			wakeStart = ds.hints[ds.hintIdx]
			for ds.hintIdx < len(ds.hints) && ds.hints[ds.hintIdx] <= arrivalAt {
				ds.hintIdx++
			}
		}
		if spinDownDone > wakeStart {
			wakeStart = spinDownDone
		}
		if wakeStart > spinDownDone {
			ds.chargeStandby(st, spinDownDone, wakeStart-spinDownDone)
		}
		ds.chargeSpinUp(st, wakeStart)
		ready := wakeStart + ds.m.SpinUpTime
		if ready < arrivalAt {
			// The hint hid the whole wake-up: the disk idles, spinning,
			// until the request arrives.
			ds.chargeIdle(st, ready, arrivalAt-ready, ds.m.RPMMax)
			ready = arrivalAt
		}
		return ready

	case DRPM:
		// All speed changes happen while the disk is idle (transitions
		// stall the spindle for seconds, so a busy disk never shifts). The
		// disk first moves toward the controller's operating point — up or
		// down — then, if the idleness persists beyond the dwell, coasts
		// one level at a time toward the minimum speed: an idle spindle
		// has no response-time constraint.
		cursor := begin
		remaining := gap
		for {
			var next int
			var dwell float64
			switch {
			case ds.rpm > ds.target: // settle down to the operating point
				next = ds.m.ClampRPM(ds.rpm - ds.m.RPMStep)
			case ds.rpm > ds.m.RPMMin: // coast below it after a dwell
				next = ds.m.ClampRPM(ds.rpm - ds.m.RPMStep)
				dwell = ds.cfg.DRPMDwell
			default:
				// At or below both the operating point and the floor, or
				// recovery is pending: idle out the gap (recovery happens
				// as requests are serviced, never during idleness).
				ds.chargeIdle(st, cursor, remaining, ds.rpm)
				return begin + gap
			}
			shift := power.ShiftTime(ds.m, ds.rpm, next)
			if remaining < dwell+shift {
				ds.chargeIdle(st, cursor, remaining, ds.rpm)
				return begin + gap
			}
			if dwell > 0 {
				ds.chargeIdle(st, cursor, dwell, ds.rpm)
				cursor += dwell
				remaining -= dwell
			}
			cursor += ds.chargeShift(st, cursor, ds.rpm, next)
			remaining -= shift
			ds.rpm = next
		}
	}
	ds.chargeIdle(st, begin, gap, ds.m.RPMMax)
	return begin + gap
}

// advanceGapTail is advanceGap without a terminating request: TPM disks
// that spin down stay down; DRPM disks coast and stay slow.
func (ds *diskSim) advanceGapTail(gap float64, st *DiskStats) {
	begin := ds.clock
	switch ds.cfg.Policy {
	case TPM:
		thr := ds.cfg.TPMThreshold
		if gap < thr {
			ds.chargeIdle(st, begin, gap, ds.m.RPMMax)
			return
		}
		ds.chargeIdle(st, begin, thr, ds.m.RPMMax)
		ds.chargeSpinDown(st, begin+thr)
		if rest := gap - thr - ds.m.SpinDownTime; rest > 0 {
			ds.chargeStandby(st, begin+thr+ds.m.SpinDownTime, rest)
		}
	case DRPM:
		ds.advanceGap(gap, st)
	default:
		ds.chargeIdle(st, begin, gap, ds.m.RPMMax)
	}
}

// observe feeds the DRPM controller: at each window boundary it compares
// the window's mean response time against the full-speed estimate — "the
// selection of the disk speed level is made based on the change in the
// average disk response time recorded for n-request windows" (§4) — and
// moves the operating speed one level: up when the degradation exceeds
// DRPMRaise (perf suffering: recover speed immediately), down when it is
// below DRPMLower (slack available: trade speed for quadratic power).
func (ds *diskSim) observe(resp, loadWait float64, size int64) {
	if ds.cfg.Policy != DRPM {
		return
	}
	ds.winCount++
	ds.winResp += resp
	ds.winFullEst += loadWait + ds.fullSpeedService(size)
	if ds.winCount < ds.cfg.DRPMWindow {
		return
	}
	avgResp := ds.winResp / float64(ds.winCount)
	avgFull := ds.winFullEst / float64(ds.winCount)
	ds.winCount, ds.winResp, ds.winFullEst = 0, 0, 0
	switch {
	case avgResp > ds.cfg.DRPMRaise*avgFull:
		ds.target = ds.m.ClampRPM(ds.target + ds.m.RPMStep)
	case ds.cfg.DRPMLower > 0 && avgResp < ds.cfg.DRPMLower*avgFull:
		ds.target = ds.m.ClampRPM(ds.target - ds.m.RPMStep)
	}
	// The spindle itself only moves during idleness (advanceGap), after a
	// service (the recovery step in run), or under queue pressure.
}
