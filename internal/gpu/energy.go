package gpu

// Energy accounting. The device integrates a simple linear power model over
// simulated time:
//
//	P(t) = IdlePower + PerSMPower · (effective SMs busy at t)
//
// which is the standard first-order GPU power abstraction (static leakage +
// activity-proportional dynamic power). The busy-SM integral is the same one
// utilisation reporting uses, so energy costs nothing extra to track.
//
// Defaults approximate an RTX 2080 Ti: ~55 W idle, 250 W TDP at 68 busy SMs
// → ~2.87 W per active SM.

// PowerModel holds the linear power coefficients, in watts.
type PowerModel struct {
	IdleW  float64 // static power while powered on
	PerSMW float64 // additional power per busy effective SM
}

// DefaultPowerModel returns the RTX 2080 Ti approximation.
func DefaultPowerModel() PowerModel {
	return PowerModel{IdleW: 55, PerSMW: 2.87}
}

// EnergyJoules reports the energy consumed so far under the power model:
// idle power over elapsed time plus dynamic power over the busy-SM integral.
func (d *Device) EnergyJoules(pm PowerModel) float64 {
	elapsed := d.eng.Now().Seconds()
	return float64(pm.IdleW*elapsed) + float64(pm.PerSMW*d.busySMTime)
}

// AveragePowerW reports mean power draw over the elapsed simulated time.
func (d *Device) AveragePowerW(pm PowerModel) float64 {
	elapsed := d.eng.Now().Seconds()
	if elapsed <= 0 {
		return pm.IdleW
	}
	return d.EnergyJoules(pm) / elapsed
}
