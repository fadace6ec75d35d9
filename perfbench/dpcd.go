package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"time"

	"diskreuse/internal/apps"
	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
	"diskreuse/internal/obs"
	"diskreuse/internal/server"
)

// dpcd-mix shape. A job is one client sweeping one program over
// dpcdSweep, request after request. Every round runs, in a seeded order,
// one job per hot program (its artifacts are cached, so every request
// hits) and one per never-seen variant of each program (its first request
// compiles, a miss; the rest hit the new entry), through dpcdClients
// closed-loop clients.
const (
	dpcdClients = 2
	dpcdProcs   = 1
)

// dpcdSweep is the sweep a job runs: the points of the repository's own
// replay-only ablations (dpcbench -ablation threshold, window and raid),
// with the defaults they share once, first. None of them is part of the
// artifact key, so the whole sweep shares one cached entry.
var dpcdSweep = []server.SimConfig{
	{}, // TPM threshold at the disk's break-even time, DRPM window 100, RAID width 1
	{TPMThreshold: 5}, {TPMThreshold: 10}, {TPMThreshold: 30}, {TPMThreshold: 60},
	{DRPMWindow: 25}, {DRPMWindow: 50}, {DRPMWindow: 200}, {DRPMWindow: 400},
	{RAIDWidth: 2}, {RAIDWidth: 4},
}

// dpcdClass is one distinct simulate configuration: an application and a
// sweep point. A never-seen variant of a program has the program's
// results, so its requests share the program's classes.
type dpcdClass struct {
	app   int
	point int
}

// dpcdRequest is one request of a job.
type dpcdRequest struct {
	class  dpcdClass
	cache  string // the X-DPCD-Cache status it must get: "hit" or "miss"
	repeat bool   // sent with the same body every round, so its body must repeat
	body   []byte
}

// dpcdReply is what a client records about one response.
type dpcdReply struct {
	req        *dpcdRequest
	withReport bool // the request asked for the server's span report
	latency    time.Duration
	status     int
	cache      string
	body       []byte
	stageMS    map[string]float64 // span totals, when the report was asked for
	rows       []rowKey           // decoded rows, when observe decoded them
	failed     error              // why observe failed the reply
}

// rowKey is the part of a version result that must match a direct exp run
// bit for bit.
type rowKey struct {
	Version                                  string
	EnergyJ, IOTimeS, ResponseS, NormEnergy  float64
	PerfDegradation                          float64
	Requests, SpinUps, SpeedShifts, DiskRuns int
}

func rowKeysOf(vs []server.VersionResult) []rowKey {
	out := make([]rowKey, len(vs))
	for i, v := range vs {
		out[i] = rowKey{v.Version, v.EnergyJ, v.IOTimeS, v.ResponseS, v.NormEnergy, v.PerfDegradation,
			v.Requests, v.SpinUps, v.SpeedShifts, v.DiskRuns}
	}
	return out
}

// directRows runs a class through exp directly — PrepareApp, then
// RunVersion for every version — and returns the rows a simulate response
// must carry.
func directRows(art *exp.Artifacts, ov server.SimConfig) ([]rowKey, error) {
	opt := exp.Options{
		Procs: dpcdProcs, TPMThreshold: ov.TPMThreshold, DRPMWindow: ov.DRPMWindow,
		DRPMRaise: ov.DRPMRaise, DRPMLower: ov.DRPMLower, RAIDWidth: ov.RAIDWidth,
	}
	ar := exp.AppResult{App: art.App(), DataBytes: art.DataBytes()}
	for _, v := range exp.VersionsFor(dpcdProcs) {
		rr, err := art.RunVersion(v, opt)
		if err != nil {
			return nil, err
		}
		ar.Results = append(ar.Results, rr)
	}
	exp.Normalize(&ar)
	out := make([]rowKey, len(ar.Results))
	for i, r := range ar.Results {
		out[i] = rowKey{string(r.Version), r.Energy, r.IOTime, r.Response, r.NormEnergy, r.PerfDegradation,
			r.Requests, r.SpinUps, r.SpeedShifts, r.DiskRuns}
	}
	return out, nil
}

// dpcdChecker verifies responses. A request sent every round must get a
// byte-identical body every time; decoded rows must equal a direct exp run
// of their class, which is computed after the measured phase.
type dpcdChecker struct {
	first map[firstKey][]byte // first hot body per class and mode
}

// firstKey separates plain replies from ones that carry a span report,
// whose bodies are compared with the report removed.
type firstKey struct {
	class      dpcdClass
	withReport bool
}

// observe checks one reply as far as possible without the reference. It
// decodes the rows of every reply to a request of a never-seen program and
// of each repeated request's first reply into r.rows; a later repeat is
// byte-compared with that first body instead and leaves r.rows nil.
func (ck *dpcdChecker) observe(r *dpcdReply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.cache != r.req.cache {
		return fmt.Errorf("class %+v repeat=%v: X-DPCD-Cache %q, want %q", r.req.class, r.req.repeat, r.cache, r.req.cache)
	}
	var resp server.SimulateResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	body := r.body
	if r.withReport {
		// The span report carries timings; the rest must still repeat.
		resp.Report = nil
		var err error
		if body, err = json.Marshal(&resp); err != nil {
			return err
		}
	}
	if r.req.repeat {
		key := firstKey{r.req.class, r.withReport}
		if prev, seen := ck.first[key]; seen {
			if !bytes.Equal(prev, body) {
				return fmt.Errorf("class %+v: body differs from the first response", r.req.class)
			}
			return nil
		}
		ck.first[key] = body
	}
	r.rows = rowKeysOf(resp.Results)
	return nil
}

// dpcdReference runs every class directly through exp.
func dpcdReference(hot []apps.App) (map[dpcdClass][]rowKey, error) {
	ref := make(map[dpcdClass][]rowKey)
	for a, app := range hot {
		art, err := exp.PrepareApp(context.Background(), app, exp.Options{Procs: dpcdProcs})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", app.Name, err)
		}
		for pt, ov := range dpcdSweep {
			rows, err := directRows(art, ov)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", app.Name, err)
			}
			ref[dpcdClass{a, pt}] = rows
		}
	}
	return ref, nil
}

// verdicts counts every reply as one checked operation: it fails when
// observe failed it, when its decoded rows differ from the reference, or,
// for a byte-identical repeat, when its class's first reply failed.
func verdicts(c *checks, replies []*dpcdReply, ref map[dpcdClass][]rowKey) {
	firstOK := make(map[firstKey]bool)
	for _, r := range replies {
		if r.failed == nil && r.rows != nil && r.req.repeat {
			firstOK[firstKey{r.req.class, r.withReport}] = reflect.DeepEqual(r.rows, ref[r.req.class])
		}
	}
	for _, r := range replies {
		switch {
		case r.failed != nil:
			c.fail("%v", r.failed)
		case r.rows != nil && !reflect.DeepEqual(r.rows, ref[r.req.class]):
			c.fail("class %+v repeat=%v: rows differ from a direct exp.PrepareApp + RunVersion", r.req.class, r.req.repeat)
		case r.rows == nil && !firstOK[firstKey{r.req.class, r.withReport}]:
			c.fail("class %+v: repeats a first response that failed its check", r.req.class)
		default:
			c.pass(1)
		}
	}
}

// runDPCDMix measures the service: an in-process dpcd server on loopback
// HTTP, driven by closed-loop clients that sweep cached programs (hits)
// and never-seen ones (one miss, then hits) in a seeded order. The traced run
// alternates a plain round with one whose requests ask for the server's
// span report.
func runDPCDMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	hot := apps.Suite(apps.Small)
	var env *dpcdEnv
	setup, err := setUp(func() (time.Duration, error) {
		if env != nil {
			env.close()
		}
		start := time.Now()
		e, err := startDPCD(hot)
		d := time.Since(start)
		env = e
		return d, err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	o.metrics["setup_s"] = setup

	rng := rand.New(rand.NewSource(cfg.seed))
	ck := &dpcdChecker{first: make(map[firstKey][]byte)}
	var plain, traced []dpcdRoundResult
	reg := env.srv.Metrics()
	before := dpcdCounters(reg)
	var heap *heapSampler
	if !cfg.traced {
		heap = startHeapSampler(heapSampleEvery)
	}
	modes := []bool{false} // whether a round's requests ask for the span report
	if cfg.traced {
		modes = append(modes, true)
	}
	round := 0
	err = repeatUntil(cfg.seconds, 3, func(int) error {
		for _, withReport := range modes {
			jobs, err := dpcdRound(hot, rng, cfg.seed, round)
			if err != nil {
				return err
			}
			round++
			rr := env.drive(jobs, withReport)
			for _, r := range rr.replies {
				if r.failed == nil {
					r.failed = ck.observe(r)
				}
			}
			if withReport {
				traced = append(traced, rr)
			} else {
				plain = append(plain, rr)
			}
		}
		return nil
	})
	if heap != nil {
		o.metrics["peak_heap_mib"] = heap.finish()
	}
	if err != nil {
		return nil, err
	}
	after := dpcdCounters(reg)

	ref, err := dpcdReference(hot)
	if err != nil {
		return nil, err
	}
	var replies []*dpcdReply
	for _, rr := range plain {
		replies = append(replies, rr.replies...)
	}
	for _, rr := range traced {
		replies = append(replies, rr.replies...)
	}
	verdicts(&o.checks, replies, ref)

	if cfg.traced {
		reportDPCDLayers(o, plain, traced, before, after)
		return o, nil
	}
	var rs rounds
	for _, rr := range plain {
		rs.add(rr.wall, len(rr.replies))
	}
	rs.report(o)
	return o, nil
}

// dpcdRoundResult is one round's replies and wall time.
type dpcdRoundResult struct {
	replies []*dpcdReply
	wall    time.Duration
}

func roundWalls(rs []dpcdRoundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall.Seconds()
	}
	return out
}

// dpcdEnv is a running in-process server and its clients.
type dpcdEnv struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

// startDPCD starts a server with the dpcd defaults on a loopback port and
// compiles the hot set through it: the workload's set-up.
func startDPCD(hot []apps.App) (*dpcdEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &dpcdEnv{
		srv:    server.New(server.Config{}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: dpcdClients, DisableCompression: true,
		}},
	}
	e.hs = &http.Server{Handler: e.srv}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, a := range hot {
		body, err := json.Marshal(server.CompileRequest{Program: a.Source, Name: a.Name, Procs: dpcdProcs, ComputePerIter: a.ComputePerIter})
		if err != nil {
			e.close()
			return nil, err
		}
		resp, err := e.client.Post(e.url+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("compile %s: %w", a.Name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the status decides
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DPCD-Cache") != "miss" {
			e.close()
			return nil, fmt.Errorf("compile %s: status %d, cache %q", a.Name, resp.StatusCode, resp.Header.Get("X-DPCD-Cache"))
		}
	}
	return e, nil
}

// close shuts the server down and waits for it to stop serving.
func (e *dpcdEnv) close() {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a failed drain still ends in Close below
	_ = e.hs.Close()
	<-e.served
}

// dpcdRound builds one round's jobs in a seeded order: a sweep of every
// hot program, and a sweep of one never-seen variant of each program,
// whose leading comment makes its text, and so its artifact key, new.
func dpcdRound(hot []apps.App, rng *rand.Rand, seed int64, round int) ([][]*dpcdRequest, error) {
	var jobs [][]*dpcdRequest
	sweep := func(a int, fresh bool, program string) error {
		var job []*dpcdRequest
		for pt, ov := range dpcdSweep {
			body, err := json.Marshal(server.SimulateRequest{
				CompileRequest: server.CompileRequest{
					Program: program, Name: hot[a].Name, Procs: dpcdProcs, ComputePerIter: hot[a].ComputePerIter,
				},
				Sim: ov,
			})
			if err != nil {
				return err
			}
			req := &dpcdRequest{class: dpcdClass{a, pt}, cache: "hit", repeat: !fresh, body: body}
			if fresh && pt == 0 {
				req.cache = "miss"
			}
			job = append(job, req)
		}
		jobs = append(jobs, job)
		return nil
	}
	for a, app := range hot {
		if err := sweep(a, false, app.Source); err != nil {
			return nil, err
		}
		salt := fmt.Sprintf("# perfbench seed %d round %d\n", seed, round)
		if err := sweep(a, true, salt+app.Source); err != nil {
			return nil, err
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// drive runs jobs through dpcdClients closed-loop clients — each takes the
// next job when its previous one is done and sends the job's requests one
// after another, each when the previous response is complete — and
// returns the replies, in job order, once every job is done.
func (e *dpcdEnv) drive(jobs [][]*dpcdRequest, withReport bool) dpcdRoundResult {
	replies := make([][]*dpcdReply, len(jobs))
	next := make(chan int, len(jobs)) // sized to the round: filled before the clients start
	for i := range jobs {
		next <- i
	}
	close(next)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < dpcdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				for _, req := range jobs[i] {
					replies[i] = append(replies[i], e.send(req, withReport))
				}
			}
		}()
	}
	wg.Wait()
	rr := dpcdRoundResult{wall: time.Since(start)}
	for _, job := range replies {
		rr.replies = append(rr.replies, job...)
	}
	return rr
}

// send posts one simulate request and times it from send to the last
// byte of the body.
func (e *dpcdEnv) send(req *dpcdRequest, withReport bool) *dpcdReply {
	r := &dpcdReply{req: req, withReport: withReport}
	url := e.url + "/v1/simulate"
	if withReport {
		url += "?report=json"
	}
	start := time.Now()
	resp, err := e.client.Post(url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		r.failed = err
		return r
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-DPCD-Cache")
	if err != nil {
		r.failed = err
		return r
	}
	if withReport && r.status == http.StatusOK {
		var rep struct {
			Report *obs.Report `json:"report"`
		}
		if err := json.Unmarshal(r.body, &rep); err != nil || rep.Report == nil {
			r.failed = errors.Join(errors.New("traced response carries no span report"), err)
			return r
		}
		r.stageMS = make(map[string]float64)
		for _, st := range rep.Report.Stages {
			r.stageMS[st.Name] += st.TotalMS
		}
	}
	return r
}

// dpcdCounterNames are the server's cache counters reported per layer.
var dpcdCounterNames = map[string]string{
	"server.cache_hits":     "dpcd_cache_hits_total",
	"server.cache_misses":   "dpcd_cache_misses_total",
	"server.evictions":      "dpcd_cache_evictions_total",
	"server.compiles_total": "dpcd_compiles_total",
}

func dpcdCounters(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for metric, name := range dpcdCounterNames {
		v, _ := reg.Value(name)
		out[metric] = v
	}
	return out
}

// dpcdStages maps the server's span names to per-layer metrics.
var dpcdStages = map[string]string{
	"prepare":         "exp.prepare_s",
	"sim":             "exp.run_version_s",
	"parse":           "parser.parse_s",
	"sema":            "sema.analyze_s",
	"layout":          "layout.new_s",
	"space":           "interp.space_s",
	"validate":        "interp.validate_s",
	"deps":            "interp.deps_s",
	"attribute-disks": "core.attribute_s",
	"restructure":     "core.schedule_s",
	"generate-trace":  "trace.generate_s",
	"prepare-trace":   "sim.prepare_s",
}

// reportDPCDLayers turns a traced run's rounds into per-layer metrics.
// Stage times come from the traced rounds' span reports, as busy seconds
// per round (summed over the round's requests; the median over rounds).
// The server's overhead is each traced request's latency minus the exp
// time its span report accounts for. Hit and miss latencies come from the
// plain rounds.
func reportDPCDLayers(o *outcome, plain, traced []dpcdRoundResult, before, after map[string]float64) {
	per := make(map[string][]float64)
	var overhead, hits, misses []float64
	for _, rr := range traced {
		sums := make(map[string]float64)
		for _, r := range rr.replies {
			for span, ms := range r.stageMS {
				if metric, ok := dpcdStages[span]; ok {
					sums[metric] += ms / 1e3
				}
			}
			if r.failed == nil {
				overhead = append(overhead, float64(r.latency)/float64(time.Millisecond)-r.stageMS["prepare"]-r.stageMS["sim"])
			}
		}
		sums["core.new_s"] = sums["interp.space_s"] + sums["interp.validate_s"] + sums["interp.deps_s"] + sums["core.attribute_s"]
		for _, metric := range dpcdStages {
			per[metric] = append(per[metric], sums[metric])
		}
		per["core.new_s"] = append(per["core.new_s"], sums["core.new_s"])
	}
	for _, rr := range plain {
		for _, r := range rr.replies {
			if r.failed != nil {
				continue
			}
			ms := float64(r.latency) / float64(time.Millisecond)
			if r.req.cache == "miss" {
				misses = append(misses, ms)
			} else {
				hits = append(hits, ms)
			}
		}
	}
	for metric, xs := range per {
		o.metrics[metric] = median(xs)
	}
	o.metrics["server.overhead_ms"] = median(overhead)
	for metric := range dpcdCounterNames {
		o.metrics[metric] = after[metric] - before[metric]
	}
	if n := o.metrics["server.cache_hits"] + o.metrics["server.cache_misses"]; n > 0 {
		o.metrics["server.hit_ratio"] = o.metrics["server.cache_hits"] / n
	}
	o.metrics["server.hit_p50_ms"] = median(hits)
	o.metrics["server.hit_tail_ms"], o.metrics["server.hit_tail_pct"] = tail(hits)
	o.metrics["server.hit_samples"] = float64(len(hits))
	o.metrics["server.miss_p50_ms"] = median(misses)
	o.metrics["server.miss_tail_ms"], o.metrics["server.miss_tail_pct"] = tail(misses)
	o.metrics["server.miss_samples"] = float64(len(misses))
	o.metrics["bench.trace_overhead_s"] = median(roundWalls(traced)) - median(roundWalls(plain))
}
