package sim

import (
	"fmt"
	"sync"

	"diskreuse/internal/trace"
)

// PreparedTrace is the replay-ready form of a request trace against a
// fixed block-to-disk mapping: the arrival sort, per-request disk
// attribution and flat-backed per-disk carve are all done once by
// PrepareTrace, so any number of policy or parameter variants can replay
// the same trace through RunPrepared without repeating the bucketing work —
// bucket once, replay many. The experiment harness prepares each
// execution's trace once and shares it read-only across all of an
// application's version simulations. The per-processor grouping only the
// closed-loop replay reads is built on its first use, once per trace.
//
// A PreparedTrace is logically immutable after PrepareTrace returns (the
// lazy grouping is built behind a sync.Once); concurrent RunPrepared calls
// against the same value are safe.
type PreparedTrace struct {
	numDisks int
	// sorted is the trace in arrival order. It aliases the caller's slice
	// when that was already sorted (the replay never mutates it); equal
	// arrivals keep their input order (stable sort), matching the serial
	// replay exactly.
	sorted []trace.Request
	// diskIdx[i] is the disk servicing sorted[i] — the attribution the
	// closed-loop issue loop reads instead of calling diskOf per request.
	diskIdx []int
	// perDisk[d] is disk d's subsequence of sorted, carved out of one flat
	// backing array sized by a counting pass. Subsequences of an
	// arrival-ordered slice are arrival-ordered, so each is replay-ready.
	perDisk [][]trace.Request
	// procLo and procHi are the smallest and largest processor ids in
	// sorted (both 0 for an empty trace), so RunPrepared can range-check an
	// Attribution without the grouping.
	procLo, procHi int
	// procIDs lists processor ids in first-appearance order; procReqs[k]
	// holds the indices into sorted of the requests procIDs[k] issued,
	// carved from one flat backing (see trace.ProcStreams). Both are built
	// by procStreams on first use.
	procOnce sync.Once
	procIDs  []int
	procReqs [][]int
}

// procStreams returns the trace's per-processor grouping, building it on
// the first call. Only the closed-loop replay reads it, so open-loop
// replays never pay for it; the sync.Once makes the first use safe when
// concurrent replays share the trace.
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

// PrepareTrace attributes every request of reqs to its disk and buckets the
// trace for replay: one counting pass, one flat per-disk carve, and one
// stable arrival sort (skipped when reqs is already sorted, the common case
// for generated traces). diskOf maps a request's block number to its disk
// using the striping information, exactly as the paper's simulator
// consumes externally provided striping parameters. reqs is never mutated.
func PrepareTrace(reqs []trace.Request, diskOf func(block int64) (int, error), numDisks int) (*PreparedTrace, error) {
	if numDisks <= 0 {
		return nil, fmt.Errorf("sim: NumDisks must be positive")
	}
	sorted := reqs
	if !trace.SortedByArrival(reqs) {
		sorted = append([]trace.Request(nil), reqs...)
		trace.SortByArrival(sorted)
	}
	diskIdx := make([]int, len(sorted))
	counts := make([]int, numDisks)
	var procLo, procHi int
	if len(sorted) > 0 {
		procLo, procHi = sorted[0].Proc, sorted[0].Proc
	}
	for i, r := range sorted {
		d, err := diskOf(r.Block)
		if err != nil {
			return nil, err
		}
		if d < 0 || d >= numDisks {
			return nil, fmt.Errorf("sim: block %d maps to disk %d outside 0..%d", r.Block, d, numDisks-1)
		}
		diskIdx[i] = d
		counts[d]++
		procLo, procHi = min(procLo, r.Proc), max(procHi, r.Proc)
	}
	backing := make([]trace.Request, len(sorted))
	perDisk := make([][]trace.Request, numDisks)
	off := 0
	for d, n := range counts {
		perDisk[d] = backing[off : off : off+n]
		off += n
	}
	for i, r := range sorted {
		d := diskIdx[i]
		perDisk[d] = append(perDisk[d], r)
	}
	return &PreparedTrace{
		numDisks: numDisks,
		sorted:   sorted,
		diskIdx:  diskIdx,
		perDisk:  perDisk,
		procLo:   procLo,
		procHi:   procHi,
	}, nil
}
