package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/exp"
	"diskreuse/internal/server"
)

// suiteFromGolden rebuilds the suite result a golden grid was written from.
func suiteFromGolden(g exp.SuiteJSON) *exp.SuiteResult {
	sr := &exp.SuiteResult{Procs: g.Procs}
	for _, a := range g.Apps {
		ar := exp.AppResult{App: apps.App{Name: a.App}, DataBytes: a.DataBytes}
		for _, r := range a.Results {
			ar.Results = append(ar.Results, exp.RunResult{
				App: a.App, Version: exp.Version(r.Version), Procs: g.Procs,
				Energy: r.EnergyJ, NormEnergy: r.NormEnergy, IOTime: r.IOTimeS, PerfDegradation: r.PerfDegradation,
				Response: r.ResponseS, Requests: r.Requests, SpinUps: r.SpinUps, SpeedShifts: r.SpeedShifts,
			})
		}
		sr.Apps = append(sr.Apps, ar)
	}
	return sr
}

func TestCheckSuite(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(suiteProcs) {
		t.Fatalf("golden has %d grids, want %d", len(golden), len(suiteProcs))
	}
	rows := 0
	for _, g := range golden {
		var c checks
		checkSuite(&c, golden, suiteFromGolden(g))
		want := int64(len(g.Versions))
		for _, a := range g.Apps {
			want += int64(len(a.Results))
			rows += len(a.Results)
		}
		if c.failed != 0 || c.attempted != want {
			t.Errorf("%dP untampered: %d of %d failed, want 0 of %d: %v", g.Procs, c.failed, c.attempted, want, c.first)
		}
	}
	if rows != 72 {
		t.Errorf("golden has %d (procs, app, version) rows, want 72", rows)
	}

	// Negative controls: each tampered result must fail its check.
	for _, tc := range []struct {
		name   string
		tamper func(sr *exp.SuiteResult)
		failed int64
		msg    string
	}{
		{"energy", func(sr *exp.SuiteResult) { sr.Apps[2].Results[3].Energy *= 1 + 1e-15 }, 1, "differs from golden"},
		{"requests", func(sr *exp.SuiteResult) { sr.Apps[0].Results[0].Requests++ }, 1, "differs from golden"},
		{"data size", func(sr *exp.SuiteResult) { sr.Apps[1].DataBytes++ }, int64(len(golden[1].Apps[1].Results)), "data_bytes"},
		{"missing row", func(sr *exp.SuiteResult) { sr.Apps[5].Results = sr.Apps[5].Results[:4] }, 6, "row missing"},
		{"average", func(sr *exp.SuiteResult) { sr.Apps[4].Results[1].NormEnergy += 0.5 }, 2, "version average"},
	} {
		sr := suiteFromGolden(golden[1])
		tc.tamper(sr)
		var c checks
		checkSuite(&c, golden, sr)
		if c.failed != tc.failed || !strings.Contains(strings.Join(c.first, "\n"), tc.msg) {
			t.Errorf("%s: %d failed %v, want %d mentioning %q", tc.name, c.failed, c.first, tc.failed, tc.msg)
		}
	}
}

// dpcdFixture is a one-class reference and a response body that matches it.
func dpcdFixture(t *testing.T) (map[dpcdClass][]rowKey, []byte) {
	t.Helper()
	results := []server.VersionResult{
		{Version: "Base", Policy: "none", EnergyJ: 100, NormEnergy: 1, IOTimeS: 2, ResponseS: 3, Requests: 40, DiskRuns: 5},
		{Version: "TPM", Policy: "tpm", EnergyJ: 80, NormEnergy: 0.8, IOTimeS: 2, ResponseS: 3.5, Requests: 40, SpinUps: 2, DiskRuns: 5},
	}
	body, err := json.Marshal(server.SimulateResponse{Artifact: "k", Name: "AST", Procs: 1, NumDisks: 8, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	return map[dpcdClass][]rowKey{{0, 0}: rowKeysOf(results), {1, 0}: rowKeysOf(results)}, body
}

func TestDPCDChecks(t *testing.T) {
	ref, body := dpcdFixture(t)
	hot := &dpcdRequest{class: dpcdClass{0, 0}, cache: "hit", repeat: true}
	cold := &dpcdRequest{class: dpcdClass{0, 0}, cache: "miss"}
	coldHit := &dpcdRequest{class: dpcdClass{0, 0}, cache: "hit"}
	reply := func(req *dpcdRequest, status int, cache string, b []byte) *dpcdReply {
		return &dpcdReply{req: req, status: status, cache: cache, body: b}
	}
	tampered := []byte(strings.Replace(string(body), `"energy_j":80`, `"energy_j":81`, 1))

	ck := &dpcdChecker{first: make(map[firstKey][]byte)}
	good := []*dpcdReply{
		reply(hot, http.StatusOK, "hit", body),
		reply(hot, http.StatusOK, "hit", body),
		reply(cold, http.StatusOK, "miss", body),
		reply(coldHit, http.StatusOK, "hit", body),
	}
	bad := []*dpcdReply{
		reply(hot, http.StatusOK, "hit", tampered),     // repeat differs from the first body
		reply(cold, http.StatusOK, "hit", body),        // a never-seen program reported as a hit
		reply(coldHit, http.StatusOK, "hit", tampered), // rows differ from the direct run
		reply(hot, http.StatusInternalServerError, "", []byte(`{"error":{}}`)),
	}
	for _, r := range append(append([]*dpcdReply(nil), good...), bad...) {
		r.failed = ck.observe(r)
	}
	var c checks
	verdicts(&c, append(good, bad...), ref)
	if c.attempted != 8 || c.failed != 4 {
		t.Fatalf("%d of %d failed, want 4 of 8: %v", c.failed, c.attempted, c.first)
	}
	for i, want := range []string{"body differs", "X-DPCD-Cache", "rows differ", "status 500"} {
		if !strings.Contains(c.first[i], want) {
			t.Errorf("failure %d = %q, want it to mention %q", i, c.first[i], want)
		}
	}

	// A first hot body that disagrees with the direct run fails, and so
	// does every byte-identical repeat of it.
	ck = &dpcdChecker{first: make(map[firstKey][]byte)}
	other := &dpcdRequest{class: dpcdClass{1, 0}, cache: "hit", repeat: true}
	rs := []*dpcdReply{reply(other, http.StatusOK, "hit", tampered), reply(other, http.StatusOK, "hit", tampered)}
	for _, r := range rs {
		r.failed = ck.observe(r)
	}
	c = checks{}
	verdicts(&c, rs, ref)
	if c.attempted != 2 || c.failed != 2 {
		t.Errorf("wrong first body: %d of %d failed, want 2 of 2: %v", c.failed, c.attempted, c.first)
	}
}
