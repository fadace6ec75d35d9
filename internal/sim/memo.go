package sim

import (
	"math"

	"diskreuse/internal/disk"
	"diskreuse/internal/power"
)

// Every serviced request evaluates the same pure functions of its size and
// the disk's speed: the service time at the current speed, the full-speed
// estimate the DRPM controller and its queue-pressure test compare
// against, and the meter's active (and, across a gap, idle) power. A
// generated or synthetic trace has one page size and a disk changes speed
// rarely, so a diskSim keeps a last-value memo of each. The memos are keyed
// on the exact arguments — never on a speed level index, which a model
// whose RPMMax lies off its RPMStep grid would alias — and recompute through
// the disk and power packages on a miss, so every value carries the bits
// the direct call returns, for any model and any trace.

// noRPM is the key of an empty memo: no speed, including the rpm <= 0
// "full speed" convention of the disk and power packages, takes it.
const noRPM = math.MinInt

// svcMemo memoizes disk.Model.ServiceTime for the last (size, rpm).
type svcMemo struct {
	size int64
	rpm  int
	t    float64
}

func newSvcMemo() svcMemo { return svcMemo{rpm: noRPM} }

func (c *svcMemo) at(m *disk.Model, size int64, rpm int) float64 {
	if size != c.size || rpm != c.rpm {
		c.size, c.rpm, c.t = size, rpm, m.ServiceTime(size, rpm)
	}
	return c.t
}

// powerMemo memoizes power.IdlePowerAt and power.ActivePowerAt for the last
// rpm. Its model is the meter's, which is fixed for a diskSim's lifetime.
type powerMemo struct {
	rpm          int
	idle, active float64
}

func newPowerMemo() powerMemo { return powerMemo{rpm: noRPM} }

func (c *powerMemo) at(m *disk.Model, rpm int) *powerMemo {
	if rpm != c.rpm {
		c.rpm, c.idle, c.active = rpm, power.IdlePowerAt(*m, rpm), power.ActivePowerAt(*m, rpm)
	}
	return c
}

// serviceTime is ds.m.ServiceTime(size, rpm).
func (ds *diskSim) serviceTime(size int64, rpm int) float64 {
	return ds.svc.at(&ds.m, size, rpm)
}

// fullSpeedService is ds.m.FullSpeedService(size).
func (ds *diskSim) fullSpeedService(size int64) float64 {
	return ds.full.at(&ds.m, size, ds.m.RPMMax)
}
