package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"diskreuse/internal/disk"
	"diskreuse/internal/obs"
	"diskreuse/internal/sim"
	"diskreuse/internal/trace"
)

// Replay-stream sizing: an 8-tenant synthesized trace, replayed under the
// three policies per round.
const (
	streamTenants  = 8
	streamRequests = 4_000_000
	// streamSeeds is the number of distinct traces: the workload seed
	// selects trace number seed mod streamSeeds, whose replay results are
	// recorded in stream_digests.json.
	streamSeeds = 16
)

var streamPolicies = []sim.Policy{sim.NoPM, sim.TPM, sim.DRPM}

// streamDigestsJSON maps a trace number to the digests of its NoPM, TPM
// and DRPM replay results. Regenerate with
// `go test -run TestStreamDigests -update` in this directory.
//
//go:embed stream_digests.json
var streamDigestsJSON []byte

func streamDigests() (map[int64][]string, error) {
	var m map[int64][]string
	if err := json.Unmarshal(streamDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("stream digests: %w", err)
	}
	return m, nil
}

// streamTraceSeed is the synthesizer seed of a workload seed.
func streamTraceSeed(seed int64) int64 {
	return (seed%streamSeeds + streamSeeds) % streamSeeds
}

// synthesize writes the workload's binary trace to path.
func synthesize(path string, traceSeed int64) (trace.Header, error) {
	f, err := os.Create(path)
	if err != nil {
		return trace.Header{}, err
	}
	hdr, err := trace.WriteSynthetic(f, trace.SynthConfig{
		Tenants: streamTenants, Requests: streamRequests, Seed: traceSeed,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return hdr, err
}

// replayResult is one policy's replay and its per-tenant attribution.
type replayResult struct {
	res  *sim.Result
	attr *obs.ProcAttribution
}

// replayFile replays the trace at path out of core under one policy.
func replayFile(path string, p sim.Policy) (replayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return replayResult{}, err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return replayResult{}, err
	}
	defer rd.Close()
	hdr := rd.Header()
	attr := obs.NewProcAttribution(hdr.NumDisks, hdr.NumProcs)
	res, err := sim.RunStream(rd, trace.SynthDiskOf(hdr.NumDisks), sim.Config{
		Model: disk.Ultrastar36Z15(), NumDisks: hdr.NumDisks, Policy: p, Attribution: attr,
	})
	if err != nil {
		return replayResult{}, fmt.Errorf("%s replay: %w", p, err)
	}
	return replayResult{res: res, attr: attr}, nil
}

// decodeFile reads the trace at path through the binary decoder only and
// returns the number of requests decoded.
func decodeFile(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	var n int64
	for {
		chunk, err := rd.Next()
		n += int64(len(chunk))
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// resultDigest fingerprints a replay's modelled outcome: energy, I/O time,
// response time and request count, total and per disk, plus the per-disk
// spin-up and speed-shift counts. Floats enter by their exact bits.
func resultDigest(res *sim.Result) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(math.Float64bits(res.Energy), math.Float64bits(res.IOTime), math.Float64bits(res.ResponseTime), uint64(res.Requests))
	for _, d := range res.PerDisk {
		put(math.Float64bits(d.Meter.Total()), math.Float64bits(d.BusyTime), math.Float64bits(d.ResponseTime),
			uint64(d.Requests), uint64(d.Meter.SpinUps), uint64(d.Meter.SpeedShifts))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkReplay checks one policy's replay: every request in the header was
// replayed, the per-tenant energy shares sum to the energy of the disks
// that served requests, and the result matches the recorded digest.
func checkReplay(hdr trace.Header, rr replayResult, want string) error {
	res := rr.res
	if int64(res.Requests) != hdr.NumRequests {
		return fmt.Errorf("%s: replayed %d requests, header says %d", res.Policy, res.Requests, hdr.NumRequests)
	}
	var tenants, served float64
	for _, e := range sim.AttributeEnergy(res, rr.attr) {
		tenants += e
	}
	for _, d := range res.PerDisk {
		if d.Requests > 0 {
			served += d.Meter.Total()
		}
	}
	if math.Abs(tenants-served) > 1e-9*served {
		return fmt.Errorf("%s: tenant energies sum to %v J, disks that served requests used %v J", res.Policy, tenants, served)
	}
	if got := resultDigest(res); got != want {
		return fmt.Errorf("%s: result digest %s, recorded %s", res.Policy, got, want)
	}
	return nil
}

// runReplayStream measures out-of-core replay: rounds of NoPM, TPM and
// DRPM replays of one synthesized binary trace, each streamed from the
// file through trace.NewReader and sim.RunStream.
func runReplayStream(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	digests, err := streamDigests()
	if err != nil {
		return nil, err
	}
	traceSeed := streamTraceSeed(cfg.seed)
	want, ok := digests[traceSeed]
	if !ok || len(want) != len(streamPolicies) {
		return nil, fmt.Errorf("no recorded digests for trace %d", traceSeed)
	}
	dir, err := os.MkdirTemp("", "perfbench-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "replay.dpct")

	var hdr trace.Header
	setup, err := setUp(func() (time.Duration, error) {
		start := time.Now()
		h, err := synthesize(path, traceSeed)
		d := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("synthesize: %w", err)
		}
		if hdr != (trace.Header{}) && h != hdr {
			return 0, fmt.Errorf("synthesize: header %+v differs from the first set-up's %+v", h, hdr)
		}
		hdr = h
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	replayRound := func() error {
		for i, p := range streamPolicies {
			rr, err := replayFile(path, p)
			if err != nil {
				return err
			}
			o.checks.check(checkReplay(hdr, rr, want[i]))
		}
		return nil
	}

	if cfg.traced {
		return o, traceReplayStream(cfg, o, path, hdr, fi.Size(), want, replayRound)
	}
	var rs rounds
	heap := startHeapSampler(heapSampleEvery)
	err = repeatUntil(cfg.seconds, 3, func(int) error {
		start := time.Now()
		if err := replayRound(); err != nil {
			return err
		}
		rs.add(time.Since(start), len(streamPolicies))
		return nil
	})
	o.metrics["peak_heap_mib"] = heap.finish()
	if err != nil {
		return nil, err
	}
	rs.report(o)
	return o, nil
}

// streamLayers maps a policy to the per-layer metric of its replay.
var streamLayers = map[sim.Policy]string{
	sim.NoPM: "sim.stream_nopm_s",
	sim.TPM:  "sim.stream_tpm_s",
	sim.DRPM: "sim.stream_drpm_s",
}

// traceReplayStream alternates an untraced round with a traced one: a
// decode-only pass over the file, then each policy's replay, each timed.
func traceReplayStream(cfg runConfig, o *outcome, path string, hdr trace.Header, size int64,
	want []string, replayRound func() error) error {
	var overhead []float64
	per := make(map[string][]float64)
	var spinUps, shifts, simRequests int
	err := repeatUntil(cfg.seconds, 2, func(round int) error {
		start := time.Now()
		if err := replayRound(); err != nil {
			return err
		}
		plain := time.Since(start)

		l := newLedger(false)
		var su, ss, sr int
		start = time.Now()
		err := l.do("pass", func() error {
			var n int64
			err := l.do("trace.decode", func() error {
				var err error
				n, err = decodeFile(path)
				return err
			})
			if err != nil {
				return err
			}
			if n != hdr.NumRequests {
				o.checks.fail("decode: %d requests, header says %d", n, hdr.NumRequests)
			} else {
				o.checks.pass(1)
			}
			for i, p := range streamPolicies {
				var rr replayResult
				if err := l.do(streamLayers[p], func() error {
					var err error
					rr, err = replayFile(path, p)
					return err
				}); err != nil {
					return err
				}
				o.checks.check(checkReplay(hdr, rr, want[i]))
				sr += rr.res.Requests
				for _, d := range rr.res.PerDisk {
					su += d.Meter.SpinUps
					ss += d.Meter.SpeedShifts
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		traced := time.Since(start)
		if round > 0 && (su != spinUps || ss != shifts || sr != simRequests) {
			o.checks.fail("replay-stream: modelled counts changed between rounds")
		}
		spinUps, shifts, simRequests = su, ss, sr
		t := l.totals()
		// The decode-only pass is work the untraced round does not do, so
		// it is not part of the cost of tracing.
		overhead = append(overhead, (traced - t["trace.decode"].self - plain).Seconds())
		per["trace.decode_mreq_s"] = append(per["trace.decode_mreq_s"], float64(hdr.NumRequests)/t["trace.decode"].self.Seconds()/1e6)
		for _, name := range streamLayers {
			per[name] = append(per[name], t[name].self.Seconds())
		}
		per["ledger.wall_s"] = append(per["ledger.wall_s"], t["pass"].incl.Seconds())
		per["ledger.residue_s"] = append(per["ledger.residue_s"], t["pass"].self.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	for name, xs := range per {
		o.metrics[name] = median(xs)
	}
	o.metrics["trace.bytes_per_req"] = float64(size) / float64(hdr.NumRequests)
	o.metrics["trace.requests"] = float64(hdr.NumRequests)
	o.metrics["sim.requests"] = float64(simRequests)
	o.metrics["sim.spin_ups"] = float64(spinUps)
	o.metrics["sim.speed_shifts"] = float64(shifts)
	o.metrics["bench.trace_overhead_s"] = median(overhead)
	return nil
}
