package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestProactiveHintsSortedMatchesShuffled pins ProactiveHints' in-place
// path: hints for an arrival-ordered trace, read without a copy, equal the
// hints for a shuffled copy of it, which is sorted first. Arrivals are
// distinct, so the sort of the shuffled copy restores exactly the sorted
// trace. Neither input is mutated.
func TestProactiveHintsSortedMatchesShuffled(t *testing.T) {
	const disks = 5
	rng := rand.New(rand.NewSource(41))
	sorted := make([]Request, 3000)
	at := 0.0
	for i := range sorted {
		// Mostly short gaps with an occasional long idle period, so some
		// disks cross the threshold and some hints are clamped.
		at += rng.Float64() * 0.5
		if rng.Intn(40) == 0 {
			at += 5 + rng.Float64()*40
		}
		sorted[i] = Request{Arrival: at, Block: int64(rng.Intn(1000)), Size: 4096}
	}
	shuffled := append([]Request(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if SortedByArrival(shuffled) {
		t.Fatal("the shuffled copy is still sorted")
	}
	keepSorted := append([]Request(nil), sorted...)
	keepShuffled := append([]Request(nil), shuffled...)

	diskOf := func(b int64) (int, error) { return int(b % disks), nil }
	const threshold, spinDown, spinUp = 10.0, 1.5, 3.0
	want, err := ProactiveHints(sorted, diskOf, threshold, spinDown, spinUp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProactiveHints(shuffled, diskOf, threshold, spinDown, spinUp)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < disks {
		t.Fatalf("fixture yields only %d hints", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hints for the shuffled copy differ from the sorted trace's:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(sorted, keepSorted) || !reflect.DeepEqual(shuffled, keepShuffled) {
		t.Error("ProactiveHints mutated its input")
	}

	neg := func(int64) (int, error) { return -1, nil }
	if _, err := ProactiveHints(sorted[:1], neg, threshold, spinDown, spinUp); err == nil {
		t.Error("a negative disk must fail")
	}
}
