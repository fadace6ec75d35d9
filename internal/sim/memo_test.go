package sim

import (
	"math"
	"reflect"
	"testing"

	"diskreuse/internal/disk"
	"diskreuse/internal/power"
)

// offGridModel is a valid DRPM model whose speeds are not multiples of
// RPMStep: levels 3500, 6500, …, 15500. A memo keyed on rpm/RPMStep, or on
// a level index of the Ultrastar's grid, would alias or misplace them.
func offGridModel() disk.Model {
	m := disk.Ultrastar36Z15()
	m.Name = "off-grid DRPM"
	m.RPMMin, m.RPMMax = 3500, 15500
	return m
}

// TestMemoMatchesDirectCalls drives one diskSim's per-request memos through
// a random sequence of (size, rpm) calls — mixed 4 KiB / 64 KiB / 1 MiB
// sizes, every level, a speed just above each level, and the rpm 0
// full-speed convention — and requires every memoized service time,
// full-speed estimate and idle/active power to carry the exact bits of the
// direct disk/power call. A memo keyed on a speed level index, or one not
// invalidated when the size changes, returns a stale value here.
func TestMemoMatchesDirectCalls(t *testing.T) {
	sizes := []int64{4 << 10, 64 << 10, 1 << 20}
	for _, tc := range []struct {
		name string
		m    disk.Model
		raid int
	}{
		{"ultrastar", disk.Ultrastar36Z15(), 1},
		{"off-grid", offGridModel(), 1},
		{"off-grid-raid3", offGridModel(), 3},
		{"travelstar", disk.Travelstar40GN(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Config{Model: tc.m, NumDisks: 1, Policy: DRPM, RAIDWidth: tc.raid}.normalize(0)
			if err != nil {
				t.Fatal(err)
			}
			rpms := []int{0}
			for _, l := range tc.m.Levels() {
				rpms = append(rpms, l, l+1)
			}
			ds := newDiskSim(c)
			meter := newMeterFor(c)
			same := func(what string, got, want float64, size int64, rpm int) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(size %d, rpm %d) = %v, direct call %v", what, size, rpm, got, want)
				}
			}
			g := lcg(11)
			size, rpm := sizes[0], rpms[0]
			for step := 0; step < 4000; step++ {
				// Change one argument, both, or neither, so hits, size-only
				// misses and speed-only misses all occur.
				switch g.intn(4) {
				case 0:
					size = sizes[g.intn(len(sizes))]
				case 1:
					rpm = rpms[g.intn(len(rpms))]
				case 2:
					size, rpm = sizes[g.intn(len(sizes))], rpms[g.intn(len(rpms))]
				}
				same("serviceTime", ds.serviceTime(size, rpm), tc.m.ServiceTime(size, rpm), size, rpm)
				same("fullSpeedService", ds.fullSpeedService(size), tc.m.FullSpeedService(size), size, rpm)
				p := ds.pow.at(&meter.M, rpm)
				same("idle power", p.idle, power.IdlePowerAt(meter.M, rpm), size, rpm)
				same("active power", p.active, power.ActivePowerAt(meter.M, rpm), size, rpm)
			}
		})
	}
}

// TestMemoizedReplayMatchesUnmemoized replays a mixed-size trace on the
// off-grid model under every policy twice per disk: once as RunPrepared
// does, and once with every memo emptied before each request, so each
// value comes from a direct disk/power call. The per-disk stats, meters
// included, must be identical.
func TestMemoizedReplayMatchesUnmemoized(t *testing.T) {
	const disks = 3
	reqs := randomTrace(5, 3000, disks, 2)
	g := lcg(9)
	for i := range reqs {
		reqs[i].Size = []int64{4 << 10, 64 << 10, 1 << 20}[g.intn(3)]
	}
	pt, err := PrepareTrace(reqs, modDisk(disks), disks)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{NoPM, TPM, DRPM} {
		c, err := Config{Model: offGridModel(), NumDisks: disks, Policy: pol, RAIDWidth: 2}.normalize(disks)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < disks; d++ {
			replay := func(forget bool) DiskStats {
				ds := newDiskSim(c)
				st := DiskStats{Meter: *newMeterFor(c)}
				for i, r := range pt.sorted {
					if int(pt.disk[i]) != d {
						continue
					}
					if forget {
						ds.svc, ds.full, ds.pow = newSvcMemo(), newSvcMemo(), newPowerMemo()
					}
					ds.service(r.Arrival, r.Size, &st)
				}
				ds.finish(1e4, &st)
				return st
			}
			got, want := replay(false), replay(true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v disk %d: memoized replay %+v, unmemoized %+v", pol, d, got, want)
			}
			if pol == DRPM && want.Meter.SpeedShifts == 0 {
				t.Fatalf("disk %d: fixture never shifts speed", d)
			}
		}
	}
}
