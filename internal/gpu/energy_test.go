package gpu

import (
	"math"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

func TestEnergyIdleOnly(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	pm := PowerModel{IdleW: 50, PerSMW: 2}
	eng.RunUntil(des.FromSeconds(2)) // nothing running
	if got := dev.EnergyJoules(pm); math.Abs(got-100) > 1e-9 {
		t.Errorf("idle energy = %v J, want 100", got)
	}
	if got := dev.AveragePowerW(pm); math.Abs(got-50) > 1e-9 {
		t.Errorf("idle power = %v W, want 50", got)
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	run := func(workMS float64) float64 {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c", 68)
		ctx.AddStream("s", LowPriority).Submit(convKernel("k", workMS))
		eng.Run()
		eng.RunUntil(des.FromSeconds(1)) // equal elapsed time for both runs
		return dev.EnergyJoules(PowerModel{IdleW: 50, PerSMW: 2})
	}
	light, heavy := run(10), run(40)
	if heavy <= light {
		t.Errorf("4x work should cost more energy: %v vs %v", heavy, light)
	}
	// Dynamic part scales ~4x: heavy-idle ≈ 4·(light-idle).
	idle := 50.0
	ratio := (heavy - idle) / (light - idle)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("dynamic energy ratio = %v, want ~4", ratio)
	}
}

// TestEnergyPerInference: identical kernels run back to back cost the same
// energy each, so ten of them cost ten times one.
func TestEnergyPerInference(t *testing.T) {
	pm := DefaultPowerModel()
	energy := func(n int) float64 {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c", 68)
		s := ctx.AddStream("s", LowPriority)
		for i := 0; i < n; i++ {
			s.Submit(convKernel("k", 5))
		}
		eng.Run()
		return dev.EnergyJoules(pm)
	}
	one, ten := energy(1), energy(10)
	if one <= 0 {
		t.Fatalf("energy per inference = %v", one)
	}
	if math.Abs(ten/10-one) > 1e-9*one {
		t.Errorf("ten inferences cost %v J, want 10 × %v J", ten, one)
	}
}

func TestDefaultPowerModelScale(t *testing.T) {
	pm := DefaultPowerModel()
	// Full device busy ≈ TDP.
	tdp := pm.IdleW + pm.PerSMW*float64(speedup.DeviceSMs)
	if tdp < 230 || tdp > 270 {
		t.Errorf("full-load power = %v W, want ~250 (2080 Ti TDP)", tdp)
	}
}

func TestAveragePowerZeroTime(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	pm := PowerModel{IdleW: 42, PerSMW: 1}
	if got := dev.AveragePowerW(pm); got != 42 {
		t.Errorf("power at t=0 = %v, want idle", got)
	}
}
