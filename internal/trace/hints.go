package trace

import (
	"fmt"
	"sort"
)

// Hint is a compiler-inserted power-management directive (Son et al. [25],
// discussed in §3 of the paper): because the compiler knows the disk
// access pattern of the restructured code, it can tell a spun-down disk to
// start spinning up *before* the first request of its next burst arrives,
// eliminating the reactive spin-up latency.
type Hint struct {
	Time float64 // when the spin-up should begin
	Disk int
}

// ProactiveHints post-processes a trace: for every per-disk idle gap long
// enough that a TPM disk would have spun down (gap >= threshold), it emits
// a hint to begin spinning up spinUpTime before the gap-ending request
// arrives. Hints are returned sorted by time.
//
// The hint is clamped to never precede the moment the disk would have
// finished spinning down (threshold + spinDownTime after the gap began):
// for gaps barely over the threshold the wake-up is only partially hidden,
// exactly as a real early-wake directive would behave.
// An arrival-ordered trace (every generated or prepared one) is read in
// place; any other is stable-sorted into a copy first.
func ProactiveHints(reqs []Request, diskOf func(block int64) (int, error),
	threshold, spinDownTime, spinUpTime float64) ([]Hint, error) {

	sorted := reqs
	if !SortedByArrival(reqs) {
		sorted = append([]Request(nil), reqs...)
		SortByArrival(sorted)
	}
	// Every disk's stream implicitly starts at time 0 (disks are powered
	// from application start), so the idle period before a disk's first
	// request also gets a wake-up hint when it is long enough.
	var last []float64 // last[d]: disk d's last arrival seen (default 0)
	var hints []Hint
	for _, r := range sorted {
		d, err := diskOf(r.Block)
		if err != nil {
			return nil, err
		}
		if d < 0 {
			return nil, fmt.Errorf("trace: block %d maps to negative disk %d", r.Block, d)
		}
		for d >= len(last) {
			last = append(last, 0)
		}
		prev := last[d]
		if gap := r.Arrival - prev; gap >= threshold {
			at := r.Arrival - spinUpTime
			if earliest := prev + threshold + spinDownTime; at < earliest {
				at = earliest
			}
			hints = append(hints, Hint{Time: at, Disk: d})
		}
		last[d] = r.Arrival
	}
	sort.Slice(hints, func(i, j int) bool { return hints[i].Time < hints[j].Time })
	return hints, nil
}
