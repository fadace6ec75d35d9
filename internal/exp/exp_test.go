package exp

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/disk"
	"diskreuse/internal/metrics"
	"diskreuse/internal/sema"
)

func TestRunAppTiny(t *testing.T) {
	a, err := apps.ByName("AST", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		ar, err := RunApp(a, Options{Size: apps.Tiny, Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		want := VersionsFor(procs)
		if len(ar.Results) != len(want) {
			t.Fatalf("procs=%d: %d results, want %d", procs, len(ar.Results), len(want))
		}
		base, ok := ar.Get(VBase)
		if !ok {
			t.Fatal("no Base result")
		}
		if math.Abs(base.NormEnergy-1) > 1e-12 || base.PerfDegradation != 0 {
			t.Errorf("Base must normalize to 1.0/0.0, got %v/%v", base.NormEnergy, base.PerfDegradation)
		}
		for _, r := range ar.Results {
			if math.IsNaN(r.Energy) || r.Energy <= 0 {
				t.Errorf("%s: bad energy %v", r.Version, r.Energy)
			}
			if r.Requests <= 0 {
				t.Errorf("%s: no requests", r.Version)
			}
			if r.Procs != procs {
				t.Errorf("%s: procs = %d", r.Version, r.Procs)
			}
		}
		// Request counts depend only on the processor assignment, not on
		// iteration order: the loop-parallelized versions (Base, TPM,
		// DRPM, T-*-s) all match, as do the two layout-aware versions.
		for _, r := range ar.Results {
			switch r.Version {
			case VTTPMm, VTDRPMm:
			default:
				if r.Requests != base.Requests {
					t.Errorf("%s: requests %d != base %d", r.Version, r.Requests, base.Requests)
				}
			}
		}
		if m1, ok1 := ar.Get(VTTPMm); ok1 {
			if m2, ok2 := ar.Get(VTDRPMm); ok2 && m1.Requests != m2.Requests {
				t.Errorf("T-TPM-m requests %d != T-DRPM-m %d", m1.Requests, m2.Requests)
			}
		}
	}
}

func TestVersionsFor(t *testing.T) {
	if got := VersionsFor(1); len(got) != 5 {
		t.Errorf("1P versions = %v", got)
	}
	got := VersionsFor(4)
	if len(got) != 7 || got[5] != VTTPMm || got[6] != VTDRPMm {
		t.Errorf("4P versions = %v", got)
	}
}

func TestRunSuiteTinyAndReports(t *testing.T) {
	sr, err := RunSuite(Options{Size: apps.Tiny, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Apps) != 6 {
		t.Fatalf("apps = %d", len(sr.Apps))
	}
	t1 := Table1(disk.Ultrastar36Z15(), sema.Options{})
	for _, want := range []string{"IBM Ultrastar 36Z15", "15.2 sec", "32 KB", "13.5 W", "Window Size"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2(sr)
	for _, want := range []string{"AST", "RSense", "Base Energy (J)", "Number of Disk Reqs"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, t2)
		}
	}
	f9 := Figure9(sr)
	if !strings.Contains(f9, "Figure 9(b) 2 processors") || !strings.Contains(f9, "T-DRPM-m") || !strings.Contains(f9, "AVG") {
		t.Errorf("Figure9:\n%s", f9)
	}
	f10 := Figure10(sr)
	if !strings.Contains(f10, "Figure 10(b)") || !strings.Contains(f10, "Cholesky") {
		t.Errorf("Figure10:\n%s", f10)
	}
	sum := Summary(sr)
	if !strings.Contains(sum, "Avg energy saving") || !strings.Contains(sum, "T-TPM-s") {
		t.Errorf("Summary:\n%s", sum)
	}

	one, err := RunSuite(Options{Size: apps.Tiny, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Figure9(one), "Figure 9(a) single processor") {
		t.Error("Figure9 1P title wrong")
	}
}

// Default-scale suite results are expensive; compute them once for all
// shape tests.
var (
	defaultOnce sync.Once
	default1P   *SuiteResult
	default4P   *SuiteResult
	defaultErr  error
)

func defaultSuites(t *testing.T) (*SuiteResult, *SuiteResult) {
	t.Helper()
	if testing.Short() {
		t.Skip("default-scale shape test skipped in -short mode")
	}
	defaultOnce.Do(func() {
		default1P, defaultErr = RunSuite(Options{Size: apps.Default, Procs: 1})
		if defaultErr != nil {
			return
		}
		default4P, defaultErr = RunSuite(Options{Size: apps.Default, Procs: 4})
	})
	if defaultErr != nil {
		t.Fatal(defaultErr)
	}
	return default1P, default4P
}

// TestShapeSingleProcessor verifies the qualitative single-processor
// results of §7.2 / Fig. 9(a) & 10(a):
//
//   - TPM alone saves almost nothing (idle times below break-even);
//   - DRPM alone does better;
//   - code restructuring amplifies both (T-TPM-s ≫ TPM, T-DRPM-s > DRPM);
//   - T-DRPM-s is the overall winner;
//   - performance: TPM costs ~nothing, restructuring reduces DRPM's cost.
func TestShapeSingleProcessor(t *testing.T) {
	one, _ := defaultSuites(t)
	s := func(v Version) float64 { return one.AverageSaving(v) }
	p := func(v Version) float64 { return one.AverageDegradation(v) }

	if s(VTPM) > 0.15 {
		t.Errorf("TPM alone should save little, got %.1f%%", 100*s(VTPM))
	}
	if s(VDRPM) <= s(VTPM) {
		t.Errorf("DRPM (%.1f%%) should beat TPM (%.1f%%)", 100*s(VDRPM), 100*s(VTPM))
	}
	if s(VTTPMs) <= s(VTPM)+0.05 {
		t.Errorf("T-TPM-s (%.1f%%) should clearly beat TPM (%.1f%%)", 100*s(VTTPMs), 100*s(VTPM))
	}
	if s(VTDRPMs) <= s(VDRPM) {
		t.Errorf("T-DRPM-s (%.1f%%) should beat DRPM (%.1f%%)", 100*s(VTDRPMs), 100*s(VDRPM))
	}
	for _, v := range []Version{VTPM, VDRPM, VTTPMs} {
		if s(VTDRPMs) < s(v) {
			t.Errorf("T-DRPM-s (%.1f%%) should be the best; %s has %.1f%%",
				100*s(VTDRPMs), v, 100*s(v))
		}
	}
	if p(VTPM) > 0.01 {
		t.Errorf("TPM perf cost should be ~0, got %.1f%%", 100*p(VTPM))
	}
	if p(VTDRPMs) >= p(VDRPM) {
		t.Errorf("restructuring should reduce DRPM's perf cost: %.1f%% vs %.1f%%",
			100*p(VTDRPMs), 100*p(VDRPM))
	}
}

// TestShapeMultiProcessor verifies the qualitative 4-processor results of
// §7.2 / Fig. 9(b) & 10(b): interleaving from multiple processors erodes
// the single-processor transformations, and the disk-layout-aware
// multiprocessor versions recover the savings.
func TestShapeMultiProcessor(t *testing.T) {
	one, four := defaultSuites(t)
	s1 := func(v Version) float64 { return one.AverageSaving(v) }
	s4 := func(v Version) float64 { return four.AverageSaving(v) }

	// Single-CPU restructuring loses effectiveness under interleaving.
	if s4(VTTPMs) >= s1(VTTPMs) {
		t.Errorf("T-TPM-s should degrade from 1P (%.1f%%) to 4P (%.1f%%)",
			100*s1(VTTPMs), 100*s4(VTTPMs))
	}
	if s4(VTDRPMs) >= s1(VTDRPMs) {
		t.Errorf("T-DRPM-s should degrade from 1P (%.1f%%) to 4P (%.1f%%)",
			100*s1(VTDRPMs), 100*s4(VTDRPMs))
	}
	// The layout-aware versions bring significant benefits over the
	// single-CPU transformations (the paper's headline multiprocessor
	// conclusion). Allow a small tolerance on the DRPM pair, where both
	// are strong.
	if s4(VTTPMm) <= s4(VTTPMs) {
		t.Errorf("T-TPM-m (%.1f%%) should beat T-TPM-s (%.1f%%) at 4P",
			100*s4(VTTPMm), 100*s4(VTTPMs))
	}
	if s4(VTDRPMm) < s4(VTDRPMs)-0.02 {
		t.Errorf("T-DRPM-m (%.1f%%) should match or beat T-DRPM-s (%.1f%%) at 4P",
			100*s4(VTDRPMm), 100*s4(VTDRPMs))
	}
	// Every transformed version still beats doing nothing.
	for _, v := range []Version{VTTPMm, VTDRPMm} {
		if s4(v) <= 0 {
			t.Errorf("%s should save energy at 4P, got %.1f%%", v, 100*s4(v))
		}
	}
}

// TestDefaultSuitesMatchBench3 pins the paper suite at the default scale
// to the committed BENCH_3.json: every field the golden records, on every
// suite average and (procs, app, version) row, must match bit for bit.
// Values are compared as JSON number text, which for float64 is the
// shortest string that round-trips, so equal text means equal bits.
func TestDefaultSuitesMatchBench3(t *testing.T) {
	one, four := defaultSuites(t)
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, one, four); err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) any {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if err := matchRecorded("BENCH_3", decode(raw), decode(got.Bytes())); err != nil {
		t.Error(err)
	}
}

// matchRecorded reports the first place where got differs from want on a
// field want records; fields only got has are ignored.
func matchRecorded(path string, want, got any) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: got %v, want an object", path, got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing", path, k)
			}
			if err := matchRecorded(path+"."+k, wv, gv); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, want %d elements", path, got, len(w))
		}
		for i := range w {
			if err := matchRecorded(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); err != nil {
				return err
			}
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
	}
	return nil
}

// TestParallelDeterminism is the determinism regression test for the
// concurrent harness: RunSuite fanned out over 8 workers must produce a
// SuiteResult deep-equal — bit-identical floats included — to the fully
// serial Jobs=1 run, for both single- and multi-processor grids. The
// fan-out only shares read-only memoized artifacts and writes results into
// fixed (app, version) slots, so any divergence here means shared mutable
// state leaked into the pipeline.
func TestParallelDeterminism(t *testing.T) {
	for _, procs := range []int{1, 4} {
		serial, err := RunSuite(Options{Size: apps.Tiny, Procs: procs, Jobs: 1})
		if err != nil {
			t.Fatalf("procs=%d serial: %v", procs, err)
		}
		parallel, err := RunSuite(Options{Size: apps.Tiny, Procs: procs, Jobs: 8})
		if err != nil {
			t.Fatalf("procs=%d parallel: %v", procs, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("procs=%d: parallel result differs from serial", procs)
			for i := range serial.Apps {
				for j := range serial.Apps[i].Results {
					s, p := serial.Apps[i].Results[j], parallel.Apps[i].Results[j]
					if s != p {
						t.Logf("  %s/%s: serial %+v != parallel %+v", s.App, s.Version, s, p)
					}
				}
			}
		}
	}
}

// RunApp's per-version fan-out must be deterministic too, including the
// P-TPM extension (whose hints derive from the shared trace).
func TestRunAppParallelDeterminism(t *testing.T) {
	a, err := apps.ByName("FFT", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Size: apps.Tiny, Procs: 4, Proactive: true}
	opt.Jobs = 1
	serial, err := RunApp(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 8
	parallel, err := RunApp(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("RunApp parallel result differs from serial:\n%+v\n%+v", serial, parallel)
	}
}

func TestAveragesEmptyVersion(t *testing.T) {
	sr := &SuiteResult{Procs: 1}
	if sr.AverageSaving(VBase) != 0 || sr.AverageDegradation(VBase) != 0 {
		t.Error("empty suite averages must be zero")
	}
}

// The P-TPM extension (proactive spin-up hints over the restructured
// schedule) must never do worse than reactive T-TPM on energy, and must
// reduce the summed response time when any spin-ups happen.
func TestProactiveExtension(t *testing.T) {
	a, err := apps.ByName("RSense", apps.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := RunApp(a, Options{Size: apps.Tiny, Procs: 1, Proactive: true})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := ar.Get(VPTPM)
	if !ok {
		t.Fatal("no P-TPM result")
	}
	reactive, ok := ar.Get(VTTPMs)
	if !ok {
		t.Fatal("no T-TPM-s result")
	}
	if p.Energy > reactive.Energy*1.0001 {
		t.Errorf("P-TPM energy %v should not exceed T-TPM-s %v", p.Energy, reactive.Energy)
	}
	// Without Proactive the extra version is absent.
	ar2, err := RunApp(a, Options{Size: apps.Tiny, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ar2.Get(VPTPM); ok {
		t.Error("P-TPM should only appear with Options.Proactive")
	}
}

func TestWriteCSV(t *testing.T) {
	sr, err := RunSuite(Options{Size: apps.Tiny, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, sr); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(strings.NewReader(b.String()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + 6 apps × 7 versions
	if len(recs) != 1+6*7 {
		t.Fatalf("rows = %d", len(recs))
	}
	if recs[0][0] != "app" || recs[0][4] != "norm_energy" {
		t.Errorf("header = %v", recs[0])
	}
	for _, rec := range recs[1:] {
		if _, err := strconv.ParseFloat(rec[3], 64); err != nil {
			t.Fatalf("bad energy field %q", rec[3])
		}
	}
}

// A metrics-enabled suite run publishes harness progress that reconciles
// with the suite shape, and the results stay bit-identical to a
// metrics-free run.
func TestSuiteMetrics(t *testing.T) {
	plain, err := RunSuite(Options{Size: apps.Tiny, Procs: 2, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	live, err := RunSuite(Options{Size: apps.Tiny, Procs: 2, Jobs: 4, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, live) {
		t.Error("suite result differs with metrics enabled")
	}
	nApps := len(live.Apps)
	if v, _ := reg.Value("exp_apps_prepared_total"); v != float64(nApps) {
		t.Errorf("apps-prepared counter = %v, want %d", v, nApps)
	}
	var cells, wantReqs float64
	for i := range live.Apps {
		v, _ := reg.Value("exp_versions_simulated_total", metrics.L("app", live.Apps[i].App.Name))
		cells += v
		if v != float64(len(live.Apps[i].Results)) {
			t.Errorf("%s: versions counter = %v, want %d", live.Apps[i].App.Name, v, len(live.Apps[i].Results))
		}
		for j := range live.Apps[i].Results {
			wantReqs += float64(live.Apps[i].Results[j].Requests)
		}
	}
	// The simulator's live series rode along on the same registry.
	if v, _ := reg.Value(metrics.SimRequestsReplayed); v != wantReqs {
		t.Errorf("sim requests counter = %v, want %v", v, wantReqs)
	}
	if v, _ := reg.Value("conc_pool_tasks_total"); v == 0 {
		t.Error("pool task counter never moved")
	}
}
