package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"

	"diskreuse/internal/conc"
	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

// RunStream is the out-of-core replay path: it consumes a trace.Source
// chunk by chunk instead of a prepared in-memory trace, so a trace far
// larger than RAM replays with the memory footprint of one chunk plus the
// per-disk simulator state. The source must be arrival-sorted (generated
// and synthesized traces are; RunStream verifies as it goes, across chunk
// boundaries too) and the replay is open-loop only — the closed-loop model
// needs every processor's full request stream in memory.
//
// The per-disk shards of the open-loop replay become streaming reducers:
// each chunk is partitioned per disk and the per-disk subsequences fan out
// over cfg.Jobs workers against persistent per-disk simulator state, with
// per-disk partial response-time sums and makespans folded in disk order
// at the end — the same float summation order as RunPrepared's disk-major
// fold, so the Result, the Record stream, the telemetry, and the
// attribution are bit-identical to the in-memory path at any Jobs count.
//
// cfg.NumDisks must be set explicitly (there is no prepared trace to
// adopt it from). When cfg.Record is set, intervals are buffered per disk
// until the end of the replay so the stream matches the in-memory path
// exactly — recording therefore costs memory proportional to the interval
// count and is meant for paper-scale traces, not out-of-core ones.
func RunStream(src trace.Source, diskOf func(block int64) (int, error), cfg Config) (*Result, error) {
	cfg, err := cfg.normalize(0)
	if err != nil {
		return nil, err
	}
	if cfg.ClosedLoop {
		return nil, fmt.Errorf("sim: the streaming replay is open-loop only (the closed-loop model needs the whole trace in memory; decode it and use Run)")
	}

	res := &Result{
		PerDisk: make([]DiskStats, cfg.NumDisks),
		Policy:  cfg.Policy,
	}
	states := newStates(cfg, res)

	sp := cfg.Span.Child("stream-replay")
	defer sp.End()

	// Per-disk streaming reducer state: the partial folds RunPrepared's
	// workers keep, plus this chunk's request indices. The scratch index
	// lists are reused across chunks, so the steady state allocates
	// nothing per chunk once they reach their high-water marks.
	type shard struct {
		resp     float64
		makespan float64
		idx      []int
		ivs      []Interval
	}
	shards := make([]shard, cfg.NumDisks)
	record := cfg.Record
	if record != nil {
		for d := range states {
			buf := &shards[d].ivs
			states[d].cfg.Record = func(iv Interval) { *buf = append(*buf, iv) }
		}
	}
	attr := cfg.Attribution
	// Live metrics update at chunk granularity: the requests counter and
	// energy gauge move once per chunk (between sharded passes, so the
	// meter reads are race-free), which is what a monitoring scrape of a
	// long out-of-core replay watches.
	lm := states[0].lm
	touched := make([]int, 0, cfg.NumDisks)
	lastArrival := math.Inf(-1)
	maxprocs := runtime.GOMAXPROCS(0)
	var total, chunks int64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(chunk) == 0 {
			continue
		}
		jobs := cfg.Jobs
		if jobs == 0 && (len(chunk) < minParallelRequests || maxprocs == 1) {
			jobs = 1
		}
		if jobs == 1 {
			// Fused serial path: when the replay is effectively serial
			// there is nothing to fan out, so one pass does validation,
			// disk attribution, and replay together — no scratch index
			// lists and no second walk over the chunk. The per-disk
			// accumulation order (each disk's requests in arrival order)
			// is the same as the sharded path's, so the two are
			// bit-identical.
			for i := range chunk {
				r := &chunk[i]
				if r.Arrival < lastArrival {
					return nil, fmt.Errorf("sim: streaming replay requires an arrival-sorted trace: request %d arrives at %v after %v",
						total+int64(i), r.Arrival, lastArrival)
				}
				lastArrival = r.Arrival
				d, err := diskOf(r.Block)
				if err != nil {
					return nil, err
				}
				if d < 0 || d >= cfg.NumDisks {
					return nil, fmt.Errorf("sim: block %d maps to disk %d outside 0..%d", r.Block, d, cfg.NumDisks-1)
				}
				if attr != nil && (r.Proc < 0 || r.Proc >= attr.NumProcs()) {
					return nil, procRangeError(attr, r.Proc)
				}
				sh := &shards[d]
				st := &res.PerDisk[d]
				busy0 := st.BusyTime
				completion, rt := states[d].service(r.Arrival, r.Size, st)
				sh.resp += rt
				if completion > sh.makespan {
					sh.makespan = completion
				}
				if attr != nil {
					attr.Observe(d, r.Proc, st.BusyTime-busy0, rt)
				}
			}
			total += int64(len(chunk))
			chunks++
			if lm != nil {
				lm.requests.Add(float64(len(chunk)))
				lm.publishEnergy(res.PerDisk)
			}
			continue
		}
		touched = touched[:0]
		if shards[0].idx == nil {
			// Pre-size the scratch index lists for a uniform spread of this
			// chunk size, so the first chunk doesn't pay growth reallocs;
			// skewed disks still grow to their high-water mark once.
			presize := 2*len(chunk)/cfg.NumDisks + 16
			for d := range shards {
				shards[d].idx = make([]int, 0, presize)
			}
		}
		for i := range chunk {
			r := &chunk[i]
			if r.Arrival < lastArrival {
				return nil, fmt.Errorf("sim: streaming replay requires an arrival-sorted trace: request %d arrives at %v after %v",
					total+int64(i), r.Arrival, lastArrival)
			}
			lastArrival = r.Arrival
			d, err := diskOf(r.Block)
			if err != nil {
				return nil, err
			}
			if d < 0 || d >= cfg.NumDisks {
				return nil, fmt.Errorf("sim: block %d maps to disk %d outside 0..%d", r.Block, d, cfg.NumDisks-1)
			}
			if attr != nil && (r.Proc < 0 || r.Proc >= attr.NumProcs()) {
				return nil, procRangeError(attr, r.Proc)
			}
			if len(shards[d].idx) == 0 {
				touched = append(touched, d)
			}
			shards[d].idx = append(shards[d].idx, i)
		}
		total += int64(len(chunk))
		chunks++
		err = conc.ForEach(context.Background(), len(touched), jobs, func(_ context.Context, k int) error {
			d := touched[k]
			sh := &shards[d]
			ds := states[d]
			st := &res.PerDisk[d]
			for _, i := range sh.idx {
				r := &chunk[i]
				busy0 := st.BusyTime
				completion, rt := ds.service(r.Arrival, r.Size, st)
				sh.resp += rt
				if completion > sh.makespan {
					sh.makespan = completion
				}
				if attr != nil {
					attr.Observe(d, r.Proc, st.BusyTime-busy0, rt)
				}
			}
			sh.idx = sh.idx[:0]
			return nil
		})
		if err != nil {
			return nil, err
		}
		if lm != nil {
			lm.requests.Add(float64(len(chunk)))
			lm.publishEnergy(res.PerDisk)
		}
	}
	res.Requests = int(total)
	sp.SetAttr("chunks", strconv.FormatInt(chunks, 10))
	sp.SetAttr("requests", strconv.FormatInt(total, 10))

	// Fold the per-disk partials in disk order — the same summation and
	// interval order as the serial disk-major loop.
	for d := range shards {
		res.ResponseTime += shards[d].resp
		if shards[d].makespan > res.Makespan {
			res.Makespan = shards[d].makespan
		}
	}
	if record != nil {
		for d := range shards {
			for _, iv := range shards[d].ivs {
				record(iv)
			}
			// The tail accounting below emits directly.
			states[d].cfg.Record = record
		}
	}
	finishRun(cfg, states, res)
	return res, nil
}

// AttributeEnergy divides a run's metered energy among the processors
// (tenants) of its attribution accumulator: each disk's active energy is
// shared in proportion to the busy time a tenant consumed there, and its
// idle, standby, and transition energy — the cost of keeping the disk
// available between requests — in proportion to the tenant's request
// count on that disk. The returned slice is indexed by processor id.
//
// Disks that served no requests keep their (idle-tail) energy
// unattributed, so the per-tenant shares sum to at most res.Energy, with
// the remainder being the standing cost of request-free disks.
func AttributeEnergy(res *Result, attr *obs.ProcAttribution) []float64 {
	out := make([]float64, attr.NumProcs())
	for d := range res.PerDisk {
		if d >= attr.NumDisks() {
			break
		}
		m := &res.PerDisk[d].Meter
		busyTot, reqTot := attr.DiskTotals(d)
		shared := m.IdleEnergy + m.StandbyEnergy + m.TransitionEnergy
		for p := range out {
			c := attr.Cell(d, p)
			if busyTot > 0 && c.BusyS > 0 {
				out[p] += m.ActiveEnergy * (c.BusyS / busyTot)
			}
			if reqTot > 0 && c.Requests > 0 {
				out[p] += shared * (float64(c.Requests) / float64(reqTot))
			}
		}
	}
	return out
}
