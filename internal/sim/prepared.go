package sim

import (
	"fmt"
	"math"
	"sync"

	"diskreuse/internal/trace"
)

// PreparedTrace is the replay-ready form of a request trace against a
// fixed block-to-disk mapping: the arrival sort and the disk attribution
// are done once by PrepareTrace, so any number of policy or parameter
// variants can replay the same trace through RunPrepared without repeating
// the diskOf calls — attribute once, replay many. The experiment harness
// prepares each execution's trace once and shares it read-only across all
// of an application's version simulations. It holds the requests once, in
// arrival order, plus a 4-byte disk label per request: 44 bytes per
// request, where a per-disk copy of the requests held 88.
//
// A PreparedTrace is logically immutable after PrepareTrace returns (the
// closed-loop grouping is built lazily behind a sync.Once); concurrent
// RunPrepared calls against the same value are safe.
type PreparedTrace struct {
	numDisks int
	// sorted is the trace in arrival order. It aliases the caller's slice
	// when that was already sorted (the replay never mutates it); equal
	// arrivals keep their input order (stable sort), matching the serial
	// replay exactly.
	sorted []trace.Request
	// disk[i] is the disk servicing sorted[i]; the open-loop replay sweeps
	// sorted and disk together, reading each cache line once per sweep.
	disk []int32
	// procLo and procHi are the smallest and largest processor ids in
	// sorted (both 0 for an empty trace), so RunPrepared can range-check an
	// Attribution without the grouping.
	procLo, procHi int
	// procIDs lists processor ids in first-appearance order; procReqs[k]
	// holds the indices into sorted of the requests procIDs[k] issued (see
	// trace.ProcStreams). Both are built by procStreams on first use.
	procOnce sync.Once
	procIDs  []int
	procReqs [][]int
}

// procStreams returns the closed-loop per-processor grouping, building it
// on the first call, so open-loop replays never pay for it; the sync.Once
// makes the first use safe when concurrent replays share the trace.
func (pt *PreparedTrace) procStreams() (procIDs []int, procReqs [][]int) {
	pt.procOnce.Do(func() {
		pt.procIDs, pt.procReqs = trace.ProcStreams(pt.sorted)
	})
	return pt.procIDs, pt.procReqs
}

// NumDisks returns the disk count the trace was prepared against.
func (pt *PreparedTrace) NumDisks() int { return pt.numDisks }

// Requests returns the number of requests in the prepared trace.
func (pt *PreparedTrace) Requests() int { return len(pt.sorted) }

// Sorted returns the prepared trace's requests in arrival order. The
// slice is shared with the replay — callers must treat it as read-only.
func (pt *PreparedTrace) Sorted() []trace.Request { return pt.sorted }

// Source returns the prepared trace's arrival-ordered requests as a
// streaming trace.Source: chunked read-only views of the in-memory slice,
// the same iterator contract the chunked binary file reader satisfies.
// RunStream over this source is bit-identical to RunPrepared.
func (pt *PreparedTrace) Source() trace.Source {
	return trace.NewSliceSource(pt.sorted, 0)
}

// PrepareTrace attributes every request of reqs to its disk and prepares
// the trace for replay: one stable arrival sort (skipped when reqs is
// already sorted, the common case for generated traces), then one diskOf
// call per request into an int32 disk label. diskOf maps a request's block
// number to its disk using the striping information, exactly as the
// paper's simulator consumes externally provided striping parameters.
// reqs is never mutated, and is aliased when already sorted. Beyond that
// copy, preparing allocates 4 bytes per request (the retained label).
func PrepareTrace(reqs []trace.Request, diskOf func(block int64) (int, error), numDisks int) (*PreparedTrace, error) {
	if numDisks <= 0 || numDisks > math.MaxInt32 {
		return nil, fmt.Errorf("sim: NumDisks %d must be in 1..%d", numDisks, math.MaxInt32)
	}
	sorted := reqs
	if !trace.SortedByArrival(reqs) {
		sorted = append([]trace.Request(nil), reqs...)
		trace.SortByArrival(sorted)
	}
	pt := &PreparedTrace{numDisks: numDisks, sorted: sorted, disk: make([]int32, len(sorted))}
	if len(sorted) > 0 {
		pt.procLo, pt.procHi = sorted[0].Proc, sorted[0].Proc
	}
	for i, r := range sorted {
		d, err := diskOf(r.Block)
		if err != nil {
			return nil, err
		}
		if d < 0 || d >= numDisks {
			return nil, fmt.Errorf("sim: block %d maps to disk %d outside 0..%d", r.Block, d, numDisks-1)
		}
		pt.disk[i] = int32(d)
		pt.procLo, pt.procHi = min(pt.procLo, r.Proc), max(pt.procHi, r.Proc)
	}
	return pt, nil
}
