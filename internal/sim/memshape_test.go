package sim

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestPrepareTraceAllocBudget pins the prepared trace's memory shape: on
// an arrival-ordered trace (aliased, never copied), PrepareTrace allocates
// at most 4 bytes per request — the retained int32 disk label — plus a
// constant. A second per-disk copy of the requests would cost 40 bytes per
// request.
func TestPrepareTraceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, disks = 1 << 16, 16
	reqs := randomTrace(13, n, disks, 4)
	diskOf := modDisk(disks)
	// Take the smallest of a few TotalAlloc deltas, so an allocation by
	// the runtime in the background cannot fail the test.
	got := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		if _, err := PrepareTrace(reqs, diskOf, disks); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("PrepareTrace: %d B for %d requests (%.2f B/request)", got, n, float64(got)/n)
	if budget := uint64(4*n + 1024); got > budget {
		t.Errorf("PrepareTrace allocated %d B for %d requests on %d disks (%.1f B/request), budget %d B",
			got, n, disks, float64(got)/n, budget)
	}
}

// TestAttributionIndexLimit pins the int32 index guard: a stream of more
// than math.MaxInt32 requests is rejected before anything is allocated and
// before diskOf is ever called.
func TestAttributionIndexLimit(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed math.MaxInt32 on this platform")
	}
	n := int(int64(math.MaxInt32) + 1)
	var a Attribution
	err := a.Build(n, func(int) int {
		t.Fatal("diskOf called for an over-long stream")
		return 0
	}, 4)
	if err == nil || !strings.Contains(err.Error(), "int32 index limit") {
		t.Fatalf("Build(%d requests) error %v, want the int32 index limit", n, err)
	}
	if a.idxBack != nil || a.counts != nil || a.perDisk != nil {
		t.Error("Build allocated before rejecting the stream")
	}
	if err := a.Build(math.MaxInt32, func(int) int { return 0 }, 0); err == nil || strings.Contains(err.Error(), "int32 index limit") {
		t.Errorf("Build(MaxInt32 requests, 0 disks) error %v, want the disk-count error", err)
	}
}
