package trace

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Adversarial coverage for the two hot-path helpers the simulator's trace
// preparation leans on: SortedByArrival (which gates skipping a defensive
// copy-and-sort) and ProcStreams (whose flat-backing grouping must exactly
// match the obvious map-append reference).

func arrivalsOf(times ...float64) []Request {
	reqs := make([]Request, len(times))
	for i, at := range times {
		reqs[i] = Request{Arrival: at, Block: int64(i)}
	}
	return reqs
}

func TestSortedByArrival(t *testing.T) {
	cases := []struct {
		name string
		reqs []Request
		want bool
	}{
		{"empty", nil, true},
		{"single", arrivalsOf(3.5), true},
		{"sorted", arrivalsOf(0, 1, 2, 3), true},
		{"all ties", arrivalsOf(2, 2, 2, 2), true},
		{"sorted with ties", arrivalsOf(0, 1, 1, 2, 2, 2, 5), true},
		{"reverse", arrivalsOf(3, 2, 1, 0), false},
		{"dip at end", arrivalsOf(0, 1, 2, 1.5), false},
		{"dip at start", arrivalsOf(1, 0, 2, 3), false},
		{"negative times sorted", arrivalsOf(-3, -1, 0), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := SortedByArrival(tc.reqs); got != tc.want {
				t.Fatalf("SortedByArrival = %v, want %v", got, tc.want)
			}
		})
	}

	// Randomized cross-check: SortedByArrival is true exactly when a stable
	// sort is a no-op.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		reqs := make([]Request, rng.Intn(8))
		for i := range reqs {
			reqs[i] = Request{Arrival: float64(rng.Intn(4)), Block: int64(i)}
		}
		sorted := append([]Request(nil), reqs...)
		SortByArrival(sorted)
		want := len(reqs) == 0 || reflect.DeepEqual(reqs, sorted)
		if got := SortedByArrival(reqs); got != want {
			t.Fatalf("SortedByArrival(%v) = %v, stable sort no-op = %v", reqs, got, want)
		}
	}
}

// procStreamsRef is the obvious map-append reference implementation.
// TestSortByArrivalMatchesSliceStable pins SortByArrival to the
// sort.SliceStable it replaced, bit for bit: heavy arrival ties, signed
// zeros and NaN arrivals (Decode accepts "NaN") included, at lengths on
// both sides of the stable sort's 20-element insertion-sort blocks.
func TestSortByArrivalMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	values := []float64{1, 0, math.Copysign(0, -1), 2, -1, 1.5, math.NaN()}
	for trial := 0; trial < 400; trial++ {
		reqs := make([]Request, rng.Intn(200))
		distinct := 1 + rng.Intn(len(values))
		for i := range reqs {
			at := float64(rng.Intn(len(reqs) + 1))
			if trial%2 == 0 {
				at = values[rng.Intn(distinct)]
			}
			reqs[i] = Request{Arrival: at, Block: int64(i)}
		}
		want := append([]Request(nil), reqs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
		SortByArrival(reqs)
		for i := range reqs {
			if reqs[i].Block != want[i].Block ||
				math.Float64bits(reqs[i].Arrival) != math.Float64bits(want[i].Arrival) {
				t.Fatalf("trial %d: position %d holds %+v, sort.SliceStable has %+v", trial, i, reqs[i], want[i])
			}
		}
	}
}

func procStreamsRef(reqs []Request) (procIDs []int, perProc [][]int) {
	idx := map[int]int{}
	for i, r := range reqs {
		k, ok := idx[r.Proc]
		if !ok {
			k = len(procIDs)
			idx[r.Proc] = k
			procIDs = append(procIDs, r.Proc)
			perProc = append(perProc, nil)
		}
		perProc[k] = append(perProc[k], i)
	}
	return procIDs, perProc
}

func procsOf(procs ...int) []Request {
	reqs := make([]Request, len(procs))
	for i, p := range procs {
		reqs[i] = Request{Arrival: float64(i), Proc: p}
	}
	return reqs
}

func TestProcStreamsAdversarial(t *testing.T) {
	cases := []struct {
		name string
		reqs []Request
	}{
		{"empty", nil},
		{"single", procsOf(0)},
		{"one proc many requests", procsOf(4, 4, 4, 4)},
		{"interleaved", procsOf(0, 1, 0, 1, 0)},
		{"first appearance order", procsOf(2, 0, 1, 0, 2)},
		{"negative and sparse ids", procsOf(-1, 1000000, -1, 3, 1000000)},
		{"singleton tail", procsOf(0, 0, 0, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkProcStreams(t, tc.reqs)
		})
	}

	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 300; trial++ {
			reqs := make([]Request, rng.Intn(40))
			for i := range reqs {
				reqs[i] = Request{Arrival: float64(i), Proc: rng.Intn(5) - 1}
			}
			checkProcStreams(t, reqs)
		}
	})
}

func checkProcStreams(t *testing.T, reqs []Request) {
	t.Helper()
	procIDs, perProc := ProcStreams(reqs)
	wantIDs, wantPer := procStreamsRef(reqs)
	if len(procIDs) != len(wantIDs) || (len(procIDs) > 0 && !reflect.DeepEqual(procIDs, wantIDs)) {
		t.Fatalf("proc ids %v, want %v", procIDs, wantIDs)
	}
	if len(perProc) != len(wantPer) {
		t.Fatalf("%d streams, want %d", len(perProc), len(wantPer))
	}
	total := 0
	for k := range perProc {
		if len(perProc[k]) > 0 && !reflect.DeepEqual(perProc[k], wantPer[k]) {
			t.Fatalf("stream %d (proc %d): %v, want %v", k, procIDs[k], perProc[k], wantPer[k])
		}
		total += len(perProc[k])
		// Every index belongs to its processor, in increasing input order.
		for j, i := range perProc[k] {
			if reqs[i].Proc != procIDs[k] {
				t.Fatalf("stream %d holds index %d of proc %d", k, i, reqs[i].Proc)
			}
			if j > 0 && perProc[k][j-1] >= i {
				t.Fatalf("stream %d not in input order: %v", k, perProc[k])
			}
		}
	}
	if total != len(reqs) {
		t.Fatalf("streams cover %d of %d requests", total, len(reqs))
	}
}
