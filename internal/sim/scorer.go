package sim

import (
	"fmt"
	"math"

	"diskreuse/internal/power"
	"diskreuse/internal/trace"
)

// EnergySummary is the scalar outcome of a memoized open-loop replay — the
// fields of Result a layout search ranks candidates by, folded in exactly
// the order RunPrepared folds them, so every value is bit-identical to the
// full replay's.
type EnergySummary struct {
	Energy       float64
	IOTime       float64
	ResponseTime float64
	Makespan     float64
	Requests     int
}

// Attribution is a request→disk mapping in carved form: per-disk
// ascending int32 index subsequences plus their hashes. The scorer takes
// one per layout candidate, scored under several power policies, so
// building it once avoids repeating the O(requests) carve. The zero value
// is ready; Build reuses the backing across candidates of any size.
type Attribution struct {
	n        int
	numDisks int
	hashes   []uint64
	counts   []int
	idxBack  []int32
	perDisk  [][]int32
}

// Build fills the attribution for a stream of n ≤ math.MaxInt32 requests
// mapped by diskOf(i) onto numDisks disks; diskOf is called twice per
// request (count, then scatter).
func (a *Attribution) Build(n int, diskOf func(i int) int, numDisks int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("sim: %d requests exceed the int32 index limit of %d", n, math.MaxInt32)
	}
	if numDisks <= 0 {
		return fmt.Errorf("sim: attribution needs a positive disk count (got %d)", numDisks)
	}
	if cap(a.counts) < numDisks {
		a.counts = make([]int, numDisks)
		a.hashes = make([]uint64, numDisks)
		a.perDisk = make([][]int32, numDisks)
	}
	if cap(a.idxBack) < n {
		a.idxBack = make([]int32, n)
	}
	a.n, a.numDisks = n, numDisks
	counts := a.counts[:numDisks]
	hashes := a.hashes[:numDisks]
	for d := range counts {
		counts[d] = 0
		hashes[d] = fnvOffset
	}
	perDisk := a.perDisk[:numDisks]
	off := 0
	// Two passes: count, carve disjoint sub-slices out of the flat backing,
	// then scatter.
	for i := 0; i < n; i++ {
		d := diskOf(i)
		if d < 0 || d >= numDisks {
			return fmt.Errorf("sim: request %d maps to disk %d outside 0..%d", i, d, numDisks-1)
		}
		counts[d]++
	}
	for d, c := range counts {
		perDisk[d] = a.idxBack[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		d := diskOf(i)
		perDisk[d] = append(perDisk[d], int32(i))
		hashes[d] = (hashes[d] ^ uint64(uint32(i))) * fnvPrime
	}
	return nil
}

// diskReplayEntry caches one disk's replay of one request subsequence: the
// simulator and stats state at the end of the subsequence, plus the
// partial folds runOpenLoop computes per disk. idx pins the exact
// subsequence so a hash collision can never return a wrong entry.
type diskReplayEntry struct {
	idx      []int32
	ds       diskSim
	st       DiskStats
	resp     float64
	makespan float64
}

// EnergyScorer scores many disk attributions of one fixed request stream
// under one policy configuration, memoizing per-disk replays.
//
// The open-loop replay is feedback-free across disks: a disk's busy/idle
// trajectory — and therefore its energy — is a pure function of the
// subsequence of requests attributed to it. Disks interact only through
// the final makespan, which finishRun uses to bill every disk's idle tail.
// Neighboring layout candidates move only the requests of the arrays they
// re-stripe, so most disks receive a subsequence the scorer has already
// replayed: Score then skips the replay entirely and re-runs only the
// cheap finish tail against the candidate's makespan, on a copy of the
// cached state. Cache hits are verified by comparing the full index
// subsequence, never just its hash, so results are exact, not
// probabilistically exact.
//
// An EnergyScorer is not safe for concurrent use; parallel searches give
// each worker its own via Clone (workers then build disjoint caches).
type EnergyScorer struct {
	sorted []trace.Request
	cfg    Config // normalized; NumDisks varies per Score call

	entries map[uint64][]*diskReplayEntry
	bytes   int // cached index bytes, for the flush bound
	empty   *diskReplayEntry

	att Attribution // scratch for the Score convenience path
}

// scorerCacheBytes bounds the memory the subsequence cache may hold before
// it is flushed wholesale (correctness is unaffected; only reuse resets).
const scorerCacheBytes = 64 << 20

// NewEnergyScorer prepares a memoizing scorer over an arrival-ordered
// request stream under cfg. sorted is aliased, never mutated.
// cfg.NumDisks is ignored (each Score call supplies its own disk count);
// features that observe per-request events or couple disks — ClosedLoop,
// Record, Telemetry, Attribution, Hints, Span — must be off, since
// memoized replays are skipped, not re-observed.
func NewEnergyScorer(sorted []trace.Request, cfg Config) (*EnergyScorer, error) {
	if !trace.SortedByArrival(sorted) {
		return nil, fmt.Errorf("sim: EnergyScorer stream must be sorted by arrival")
	}
	if cfg.ClosedLoop {
		return nil, fmt.Errorf("sim: EnergyScorer replays open-loop only")
	}
	if cfg.Record != nil || cfg.Telemetry != nil || cfg.Attribution != nil || cfg.Span != nil || len(cfg.Hints) > 0 {
		return nil, fmt.Errorf("sim: EnergyScorer cannot drive per-request observers (Record/Telemetry/Attribution/Span/Hints)")
	}
	cfg.NumDisks = 0
	norm, err := cfg.normalize(1)
	if err != nil {
		return nil, err
	}
	s := &EnergyScorer{
		sorted:  sorted,
		cfg:     norm,
		entries: make(map[uint64][]*diskReplayEntry),
	}
	s.empty = &diskReplayEntry{ds: *newDiskSim(norm)}
	s.empty.st.Meter = *newMeterFor(norm)
	return s, nil
}

// newMeterFor builds a fresh per-disk meter for cfg, including the
// RAID-width power scaling.
func newMeterFor(cfg Config) *power.Meter {
	meterModel := cfg.Model
	if w := float64(cfg.RAIDWidth); w > 1 {
		meterModel.PowerActive *= w
		meterModel.PowerIdle *= w
		meterModel.PowerStandby *= w
		meterModel.SpinDownEnergy *= w
		meterModel.SpinUpEnergy *= w
	}
	return power.NewMeter(meterModel)
}

// Clone returns a scorer over the same stream and configuration with an
// empty cache and its own scratch, for use from another goroutine.
func (s *EnergyScorer) Clone() *EnergyScorer {
	return &EnergyScorer{
		sorted:  s.sorted,
		cfg:     s.cfg,
		entries: make(map[uint64][]*diskReplayEntry),
		empty:   s.empty,
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Score replays the stream with per-request attribution diskOf(i) over
// numDisks disks and returns the summary RunPrepared would produce —
// bit-for-bit — reusing cached per-disk replays where the attribution
// leaves a disk's subsequence unchanged.
func (s *EnergyScorer) Score(diskOf func(i int) int, numDisks int) (EnergySummary, error) {
	if err := s.att.Build(len(s.sorted), diskOf, numDisks); err != nil {
		return EnergySummary{}, err
	}
	return s.ScoreAttribution(&s.att)
}

// ScoreAttribution scores a pre-built attribution, so one carve can feed
// several policies' scorers. att must have been built over a stream of the
// same length.
func (s *EnergyScorer) ScoreAttribution(att *Attribution) (EnergySummary, error) {
	if att.n != len(s.sorted) {
		return EnergySummary{}, fmt.Errorf("sim: attribution built over %d requests, stream has %d", att.n, len(s.sorted))
	}
	numDisks := att.numDisks

	// Resolve each disk's entry, replaying subsequences seen for the first
	// time, then fold partials and run the finish tail exactly as
	// runOpenLoop + finishRun do: response times and makespan in disk
	// order, then per-disk finish and energy sum in disk order.
	ents := make([]*diskReplayEntry, numDisks)
	sum := EnergySummary{Requests: len(s.sorted)}
	for d := 0; d < numDisks; d++ {
		en := s.lookupOrReplay(att.hashes[d], att.perDisk[d])
		ents[d] = en
		sum.ResponseTime += en.resp
		if en.makespan > sum.Makespan {
			sum.Makespan = en.makespan
		}
	}
	for d := 0; d < numDisks; d++ {
		en := ents[d]
		ds := en.ds
		ds.sub = append([]float64(nil), en.ds.sub...)
		st := en.st
		ds.finish(sum.Makespan-ds.clock, &st)
		sum.Energy += st.Meter.Total()
		sum.IOTime += st.BusyTime
	}
	return sum, nil
}

// lookupOrReplay returns the cached entry for the subsequence, verifying
// the indices element-wise, or replays and caches it.
func (s *EnergyScorer) lookupOrReplay(h uint64, idx []int32) *diskReplayEntry {
	if len(idx) == 0 {
		return s.empty
	}
	for _, en := range s.entries[h] {
		if len(en.idx) != len(idx) {
			continue
		}
		same := true
		for k := range idx {
			if en.idx[k] != idx[k] {
				same = false
				break
			}
		}
		if same {
			return en
		}
	}
	en := &diskReplayEntry{idx: append([]int32(nil), idx...)}
	en.ds = *newDiskSim(s.cfg)
	en.st.Meter = *newMeterFor(s.cfg)
	for _, i := range idx {
		r := &s.sorted[i]
		completion, rt := en.ds.service(r.Arrival, r.Size, &en.st)
		en.resp += rt
		if completion > en.makespan {
			en.makespan = completion
		}
	}
	if s.bytes += 4 * len(idx); s.bytes > scorerCacheBytes {
		s.entries = make(map[uint64][]*diskReplayEntry)
		s.bytes = 4 * len(idx)
	}
	s.entries[h] = append(s.entries[h], en)
	return en
}
