package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// checks tallies checked operations. It is safe for concurrent use.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string // the first few failure messages
}

// pass counts n checked operations that matched.
func (c *checks) pass(n int) {
	c.mu.Lock()
	c.attempted += int64(n)
	c.mu.Unlock()
}

// fail counts one checked operation that failed or mismatched.
func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failing it when err is non-nil.
func (c *checks) check(err error) {
	if err != nil {
		c.fail("%v", err)
		return
	}
	c.pass(1)
}

// errorRate is failed ÷ attempted.
func (c *checks) errorRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// report writes the tally and the first failures to w.
func (c *checks) report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "perfbench: checks: %d attempted, %d failed\n", c.attempted, c.failed)
	for _, m := range c.first {
		fmt.Fprintf(w, "perfbench: check failed: %s\n", m)
	}
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a tail is reported at, in tenths
// of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, and the nearest-rank value at that percentile. With
// fewer than 20 samples no percentile qualifies; it returns the median and
// percentile 50, so the caller can report how thin the tail is.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	for _, pm := range tailLadder {
		// Nearest rank: the smallest k with k/n >= pm/1000.
		if k := (pm*n + 999) / 1000; n-k >= 10 {
			return s[k-1], float64(pm) / 10
		}
	}
	return median(xs), 50
}

// ledger records spans around the benchmark's calls into the layers: a
// name, its start and end, and the span that was open when it began. With
// allocs set it also reads runtime.MemStats around each span, outside the
// timed interval, so the allocation counters are inclusive deltas of the
// span.
type ledger struct {
	epoch  time.Time
	allocs bool
	spans  []span
	open   []int
}

type span struct {
	name       string
	parent     int // index into spans, -1 for a root
	start, end time.Duration
	allocBytes uint64
	allocCount uint64
}

func newLedger(allocs bool) *ledger {
	return &ledger{epoch: time.Now(), allocs: allocs}
}

// do times fn as a span named name, nested under the innermost open span.
func (l *ledger) do(name string, fn func() error) error {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	var ms runtime.MemStats
	if l.allocs {
		runtime.ReadMemStats(&ms)
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{name: name, parent: parent})
	l.open = append(l.open, id)
	bytes0, count0 := ms.TotalAlloc, ms.Mallocs
	start := time.Since(l.epoch)
	err := fn()
	end := time.Since(l.epoch)
	l.open = l.open[:len(l.open)-1]
	sp := &l.spans[id]
	sp.start, sp.end = start, end
	if l.allocs {
		runtime.ReadMemStats(&ms)
		sp.allocBytes, sp.allocCount = ms.TotalAlloc-bytes0, ms.Mallocs-count0
	}
	return err
}

// layerTotal is one span name's sum over a ledger: self time (a span's
// duration minus the durations of its direct children), inclusive time,
// call count and inclusive allocations.
type layerTotal struct {
	self       time.Duration
	incl       time.Duration
	calls      int
	allocBytes uint64
	allocCount uint64
}

// totals sums the ledger by span name.
func (l *ledger) totals() map[string]layerTotal {
	child := make([]time.Duration, len(l.spans))
	for _, sp := range l.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	out := make(map[string]layerTotal)
	for i, sp := range l.spans {
		t := out[sp.name]
		d := sp.end - sp.start
		t.self += d - child[i]
		t.incl += d
		t.calls++
		t.allocBytes += sp.allocBytes
		t.allocCount += sp.allocCount
		out[sp.name] = t
	}
	return out
}

// heapSampler tracks the peak of the Go heap's object bytes (live plus
// not-yet-swept garbage) by polling runtime/metrics, which does not stop
// the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is the heap sampler's polling period: short against the
// time a GC cycle takes to grow and collect the heap, long enough that its
// wake-ups do not compete with the workload.
const heapSampleEvery = 4 * time.Millisecond

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// repeatUntil calls fn for rounds until d has elapsed since the first
// round began, and at least min times. It stops at the first error.
func repeatUntil(d time.Duration, min int, fn func(round int) error) error {
	start := time.Now()
	for round := 0; round < min || time.Since(start) < d; round++ {
		if err := fn(round); err != nil {
			return err
		}
	}
	return nil
}

// setUp runs a workload's set-up setupRepeats times and returns the median
// time in seconds. fn performs one set-up and returns how long it took.
func setUp(fn func() (time.Duration, error)) (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // start each set-up from a collected heap
		d, err := fn()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.4f s\n", i, d.Seconds())
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// rounds collects the wall times of an untraced run's measured rounds.
type rounds struct {
	walls []float64
}

// add records one round: its wall time and the checked operations it
// completed.
func (r *rounds) add(wall time.Duration, ops int) {
	s := wall.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: round %d: %.4f s, %d operations\n", len(r.walls), s, ops)
	r.walls = append(r.walls, s)
}

// report sets wall_s, the median round's wall time.
func (r *rounds) report(o *outcome) {
	o.metrics["wall_s"] = median(r.walls)
}
