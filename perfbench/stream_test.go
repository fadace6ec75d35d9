package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diskreuse/internal/obs"
	"diskreuse/internal/trace"
)

var update = flag.Bool("update", false, "re-record stream_digests.json")

// replayAll synthesizes trace number traceSeed into dir and replays it
// under every policy.
func replayAll(t *testing.T, dir string, traceSeed int64) (trace.Header, []replayResult) {
	t.Helper()
	path := filepath.Join(dir, "t.dpct")
	hdr, err := synthesize(path, traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	var out []replayResult
	for _, p := range streamPolicies {
		rr, err := replayFile(path, p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rr)
	}
	return hdr, out
}

// TestStreamDigests checks one recorded trace against its digests, or with
// -update re-records every trace's digests.
func TestStreamDigests(t *testing.T) {
	if !*update {
		if testing.Short() {
			t.Skip("replays a full-size trace")
		}
		digests, err := streamDigests()
		if err != nil {
			t.Fatal(err)
		}
		if len(digests) != streamSeeds {
			t.Fatalf("%d recorded traces, want %d", len(digests), streamSeeds)
		}
		hdr, rrs := replayAll(t, t.TempDir(), 3)
		for i, rr := range rrs {
			if err := checkReplay(hdr, rr, digests[3][i]); err != nil {
				t.Error(err)
			}
		}
		return
	}
	digests := make(map[int64][]string)
	dir := t.TempDir()
	for s := int64(0); s < streamSeeds; s++ {
		_, rrs := replayAll(t, dir, s)
		for _, rr := range rrs {
			digests[s] = append(digests[s], resultDigest(rr.res))
		}
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("stream_digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckReplayNegative tampers with a correct replay three ways; each
// must fail the check.
func TestCheckReplayNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a full-size trace")
	}
	hdr, rrs := replayAll(t, t.TempDir(), 5)
	rr := rrs[1]
	want := resultDigest(rr.res)
	if err := checkReplay(hdr, rr, want); err != nil {
		t.Fatalf("untampered replay: %v", err)
	}
	short := hdr
	short.NumRequests--
	if err := checkReplay(short, rr, want); err == nil || !strings.Contains(err.Error(), "header says") {
		t.Errorf("request count mismatch not caught: %v", err)
	}
	if err := checkReplay(hdr, rr, strings.Repeat("0", len(want))); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("digest mismatch not caught: %v", err)
	}
	rr.attr = obs.NewProcAttribution(hdr.NumDisks, hdr.NumProcs)
	if err := checkReplay(hdr, rr, want); err == nil || !strings.Contains(err.Error(), "tenant energies") {
		t.Errorf("attribution mismatch not caught: %v", err)
	}
}
