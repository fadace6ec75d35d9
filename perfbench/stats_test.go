package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTailRule pins the tail percentile: the highest of the ladder with at
// least ten samples beyond it, read by nearest rank.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
	}{
		{10, 50, 5.5},       // too few for any ladder step: the median
		{19, 50, 10},        // 19·0.5 = 9.5 beyond p50: still too few
		{20, 50, 10},        // exactly ten beyond p50
		{40, 75, 30},        // ten beyond p75
		{100, 90, 90},       // ten beyond p90
		{199, 90, 180},      // p95 would leave 9.95
		{200, 95, 190},      // ten beyond p95
		{1000, 99, 990},     // ten beyond p99
		{9999, 99, 9900},    // p99.9 would leave 9.999
		{10000, 99.9, 9990}, // ten beyond p99.9
	} {
		got, pct := tail(ramp(c.n))
		if pct != c.pct || got != c.want {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v", c.n, got, pct, c.want, c.pct)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("tail(nil) = %v, %v", v, p)
	}
}

// TestLedgerSelfTime checks the self-time subtraction: a span's self time
// is its duration minus its direct children's, so the self times of a
// tree add up to the root's duration.
func TestLedgerSelfTime(t *testing.T) {
	l := newLedger(true)
	sleep := func(d time.Duration) func() error {
		return func() error { time.Sleep(d); return nil }
	}
	err := l.do("root", func() error {
		time.Sleep(5 * time.Millisecond)
		if err := l.do("a", func() error {
			time.Sleep(5 * time.Millisecond)
			return l.do("b", sleep(10*time.Millisecond))
		}); err != nil {
			return err
		}
		return l.do("b", sleep(10*time.Millisecond))
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := l.totals()
	var sum time.Duration
	for _, lt := range tot {
		sum += lt.self
	}
	if root := tot["root"].incl; sum != root {
		t.Errorf("self times sum to %v, root span lasted %v", sum, root)
	}
	if tot["b"].calls != 2 || tot["a"].calls != 1 {
		t.Errorf("calls: a %d, b %d", tot["a"].calls, tot["b"].calls)
	}
	if a := tot["a"]; a.self != a.incl-l.spans[2].end+l.spans[2].start {
		t.Errorf("a: self %v, inclusive %v, nested b %v", a.self, a.incl, l.spans[2].end-l.spans[2].start)
	}
	if b := tot["b"]; b.self != b.incl || b.self < 20*time.Millisecond {
		t.Errorf("b is a leaf: self %v, inclusive %v", b.self, b.incl)
	}
	if r := tot["root"]; r.self < 5*time.Millisecond || r.self >= r.incl {
		t.Errorf("root: self %v of %v", r.self, r.incl)
	}
}

// TestLedgerAllocs checks that a span's allocation delta covers what its
// call allocated.
func TestLedgerAllocs(t *testing.T) {
	l := newLedger(true)
	var keep [][]byte
	l.do("alloc", func() error {
		for i := 0; i < 100; i++ {
			keep = append(keep, make([]byte, 1<<16))
		}
		return nil
	})
	a := l.totals()["alloc"]
	if a.allocBytes < 100<<16 || a.allocCount < 100 {
		t.Errorf("alloc span: %d bytes in %d allocations, want at least %d in 100", a.allocBytes, a.allocCount, 100<<16)
	}
	_ = keep
}

// TestMetricCatalog keeps the metric lists the program prints in step with
// BENCHMARK.json.
func TestMetricCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bm.EndToEnd)
	same("per_layer", perLayer, bm.PerLayer)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json has %d", len(workloads), len(bm.Workloads))
	}
	for i, w := range workloads {
		if w.name != bm.Workloads[i].Name {
			t.Errorf("workload %d: %s, BENCHMARK.json %s", i, w.name, bm.Workloads[i].Name)
		}
	}
}

// TestBuildResult checks the result line: a missing end-to-end metric is
// an error, a per-layer metric the workload did not exercise reads 0, and
// a failed check makes the run incorrect.
func TestBuildResult(t *testing.T) {
	o := newOutcome()
	o.checks.pass(3)
	for _, d := range endToEnd[1:] {
		o.metrics[d.name] = 1
	}
	if _, err := buildResult(o, false); err == nil {
		t.Errorf("missing %s not reported", endToEnd[0].name)
	}
	o.metrics[endToEnd[0].name] = 1
	res, err := buildResult(o, false)
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced: %+v, %v", res, err)
	}
	o.checks.fail("tampered")
	res, err = buildResult(o, true)
	if err != nil || res.Correct || res.Attempted != 4 || res.Failed != 1 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced: %+v, %v", res, err)
	}
	if got := res.Metrics["bench.error_rate"].Value; got != 0.25 {
		t.Errorf("error rate %v, want 0.25", got)
	}
	if got := res.Metrics["server.cache_hits"]; got.Value != 0 || got.Unit != "count" {
		t.Errorf("unexercised metric: %+v", got)
	}
}
