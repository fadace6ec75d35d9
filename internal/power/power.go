// Package power implements the disk energy model of the paper's evaluation
// (§7.1): the Table 1 state powers and mode-transition costs for TPM disks,
// and the quadratic power-versus-RPM estimation of the DRPM work
// (Gurumurthi et al. [13]) for multi-speed disks.
//
// The quadratic model splits idle power into a speed-independent component
// (electronics, arm — equal to standby power) and an air-drag/spindle
// component that grows with the square of the rotational speed, anchored so
// the model reproduces the data-sheet idle power at full speed:
//
//	P_idle(r) = P_standby + (P_idle(max) - P_standby) · (r/r_max)²
//
// Servicing adds a constant head/channel activity term on top of idle
// power at the current speed.
package power

import "diskreuse/internal/disk"

// Meter accumulates per-state durations and energy for one disk. It is the
// single place energy is computed, so the simulator's accounting identity
// (energy = Σ state power × state time + Σ transition energies) holds by
// construction and is checkable in tests.
type Meter struct {
	M disk.Model

	ActiveTime     float64 // s servicing
	IdleTime       float64 // s spinning, request-free (any RPM)
	StandbyTime    float64 // s spun down
	TransitionTime float64 // s spent changing speed or spinning up/down

	ActiveEnergy     float64 // J
	IdleEnergy       float64 // J
	StandbyEnergy    float64 // J
	TransitionEnergy float64 // J

	SpinUps, SpinDowns int // TPM transitions
	SpeedShifts        int // DRPM level changes
}

// NewMeter returns a Meter for the given disk model.
func NewMeter(m disk.Model) *Meter { return &Meter{M: m} }

// IdlePowerAt returns the idle (spinning, not servicing) power at rpm.
func IdlePowerAt(m disk.Model, rpm int) float64 {
	if rpm <= 0 {
		rpm = m.RPMMax
	}
	f := float64(rpm) / float64(m.RPMMax)
	return m.PowerStandby + (m.PowerIdle-m.PowerStandby)*f*f
}

// ActivePowerAt returns the servicing power at rpm: idle power at that
// speed plus the constant activity delta from the data sheet.
func ActivePowerAt(m disk.Model, rpm int) float64 {
	return IdlePowerAt(m, rpm) + (m.PowerActive - m.PowerIdle)
}

// ShiftTime returns the time to move between two RPM levels, scaled
// linearly from the full spin-up/spin-down times by the speed delta.
func ShiftTime(m disk.Model, from, to int) float64 {
	if from == to {
		return 0
	}
	frac := float64(abs(from-to)) / float64(m.RPMMax)
	if to > from {
		return m.SpinUpTime * frac
	}
	return m.SpinDownTime * frac
}

// ShiftEnergy returns the energy to move between two RPM levels, scaled
// linearly from the full transition energies by the speed delta.
func ShiftEnergy(m disk.Model, from, to int) float64 {
	if from == to {
		return 0
	}
	frac := float64(abs(from-to)) / float64(m.RPMMax)
	if to > from {
		return m.SpinUpEnergy * frac
	}
	return m.SpinDownEnergy * frac
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Active charges dt seconds of servicing at rpm.
func (e *Meter) Active(dt float64, rpm int) {
	e.ActiveAt(dt, ActivePowerAt(e.M, rpm))
}

// ActiveAt charges dt seconds of servicing at a draw of watts, which must
// be ActivePowerAt(e.M, rpm) for the speed serviced at: the entry point
// for a caller that memoizes the state power across requests.
func (e *Meter) ActiveAt(dt, watts float64) {
	if dt <= 0 {
		return
	}
	e.ActiveTime += dt
	e.ActiveEnergy += watts * dt
}

// Idle charges dt seconds of request-free spinning at rpm.
func (e *Meter) Idle(dt float64, rpm int) {
	e.IdleAt(dt, IdlePowerAt(e.M, rpm))
}

// IdleAt charges dt seconds of request-free spinning at a draw of watts,
// which must be IdlePowerAt(e.M, rpm) for the speed spun at.
func (e *Meter) IdleAt(dt, watts float64) {
	if dt <= 0 {
		return
	}
	e.IdleTime += dt
	e.IdleEnergy += watts * dt
}

// Standby charges dt seconds spun down.
func (e *Meter) Standby(dt float64) {
	if dt <= 0 {
		return
	}
	e.StandbyTime += dt
	e.StandbyEnergy += e.M.PowerStandby * dt
}

// SpinDown charges a full idle->standby transition (TPM).
func (e *Meter) SpinDown() {
	e.SpinDowns++
	e.TransitionTime += e.M.SpinDownTime
	e.TransitionEnergy += e.M.SpinDownEnergy
}

// SpinUp charges a full standby->active transition (TPM).
func (e *Meter) SpinUp() {
	e.SpinUps++
	e.TransitionTime += e.M.SpinUpTime
	e.TransitionEnergy += e.M.SpinUpEnergy
}

// Shift charges a DRPM speed change between two levels.
func (e *Meter) Shift(from, to int) {
	if from == to {
		return
	}
	e.SpeedShifts++
	e.TransitionTime += ShiftTime(e.M, from, to)
	e.TransitionEnergy += ShiftEnergy(e.M, from, to)
}

// Total returns the accumulated energy in joules.
func (e *Meter) Total() float64 {
	return e.ActiveEnergy + e.IdleEnergy + e.StandbyEnergy + e.TransitionEnergy
}

// TotalTime returns the accumulated wall-clock time accounted for.
func (e *Meter) TotalTime() float64 {
	return e.ActiveTime + e.IdleTime + e.StandbyTime + e.TransitionTime
}

// Breakdown is a meter's time-in-state and energy-by-state decomposition in
// report-friendly form. FracEnergy fields are each state's share of Total
// (zero when Total is zero), so a report can show where the joules went
// without re-deriving the model.
type Breakdown struct {
	ActiveTimeS     float64 `json:"active_time_s"`
	IdleTimeS       float64 `json:"idle_time_s"`
	StandbyTimeS    float64 `json:"standby_time_s"`
	TransitionTimeS float64 `json:"transition_time_s"`

	ActiveEnergyJ     float64 `json:"active_energy_j"`
	IdleEnergyJ       float64 `json:"idle_energy_j"`
	StandbyEnergyJ    float64 `json:"standby_energy_j"`
	TransitionEnergyJ float64 `json:"transition_energy_j"`

	FracActive     float64 `json:"frac_active"`
	FracIdle       float64 `json:"frac_idle"`
	FracStandby    float64 `json:"frac_standby"`
	FracTransition float64 `json:"frac_transition"`
}

// Breakdown returns the meter's per-state decomposition.
func (e *Meter) Breakdown() Breakdown {
	b := Breakdown{
		ActiveTimeS:     e.ActiveTime,
		IdleTimeS:       e.IdleTime,
		StandbyTimeS:    e.StandbyTime,
		TransitionTimeS: e.TransitionTime,

		ActiveEnergyJ:     e.ActiveEnergy,
		IdleEnergyJ:       e.IdleEnergy,
		StandbyEnergyJ:    e.StandbyEnergy,
		TransitionEnergyJ: e.TransitionEnergy,
	}
	if tot := e.Total(); tot > 0 {
		b.FracActive = e.ActiveEnergy / tot
		b.FracIdle = e.IdleEnergy / tot
		b.FracStandby = e.StandbyEnergy / tot
		b.FracTransition = e.TransitionEnergy / tot
	}
	return b
}
