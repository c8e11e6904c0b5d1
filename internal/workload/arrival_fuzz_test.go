package workload

import (
	"testing"

	"sgprs/internal/des"
)

// within reports whether v lies in [lo, hi]; NaN never does.
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// rateOK admits 0 (the natural rate, where the kind has one) or a rate in
// [1e-12, 1e6] arrivals per second.
func rateOK(r float64) bool { return r == 0 || within(r, 1e-12, 1e6) }

// FuzzArrival starts one of the six arrival kinds, optionally scaled, for
// one task of a run with a 1 s horizon and draws up to 256 instants: no
// panic, and no instant before the previous one (nor before time 0).
// Parameters are bounded so every input finishes quickly: Validate accepts
// them, an MMPP sojourn of at least 1 µs means at most ~1e6 state changes
// before the horizon ends its walk, and a diurnal cycle spans at most 1e6
// candidate arrivals (thinning from a rate of ~0 at the cycle start takes
// ~(cycle·peak rate)^⅔ candidates).
func FuzzArrival(f *testing.F) {
	const tiny = 1e-12
	horizon := des.Second
	period := int64(des.FromSeconds(1.0 / 30))
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(0), 2.0, 0.0, 0.0, 0.0, period, period/2, int64(0), uint64(1))
	f.Add(uint8(1), 0.0, 0.0, 0.0, 1.5, period, int64(0), int64(0), uint64(2))
	f.Add(uint8(2), 0.5, 1.5, 0.0, 2.0, period, int64(0), int64(7), uint64(3))
	f.Add(uint8(3), 0.0, 200.0, 0.2, 0.0, period, int64(0), int64(0), uint64(4))
	// A low-intensity MMPP: an arrival every ~1e6 s, so the walk crosses
	// every state change up to the horizon.
	f.Add(uint8(3), 0.0, 200.0, 0.2, 1e-8, period, int64(0), int64(0), uint64(4))
	// 1 µs sojourns: the most state changes a walk to the horizon crosses.
	f.Add(uint8(3), tiny, tiny, 1e-6, 0.0, period, int64(0), int64(0), uint64(4))
	f.Add(uint8(4), 2.0, 0.0, 0.0, 2.0, period, int64(0), int64(0), uint64(5))
	f.Add(uint8(5), 0.0, 0.0, 0.0, 0.5, period, int64(0), int64(0), uint64(6))
	// Rates whose gaps overflow the nanosecond clock.
	f.Add(uint8(0), tiny, 0.0, 0.0, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(1), tiny, 0.0, 0.0, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(1), 0.0, 0.0, 0.0, tiny, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(2), 1.0, 1.0, tiny, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(2), 1.0, 1.0, 0.0, tiny, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(3), tiny, tiny, 1e10, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(4), 1.0, 0.0, tiny, 0.0, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(4), 1.0, 0.0, 0.0, tiny, period, int64(0), int64(0), uint64(1))
	f.Add(uint8(5), tiny, 0.0, 0.0, 0.0, period, int64(0), int64(0), uint64(1))
	f.Fuzz(func(t *testing.T, kind uint8, x, y, z, factor float64, period, jitter, offset int64, seed uint64) {
		if period < 1 || jitter < 0 || jitter >= period || offset < 0 {
			t.Skip("task outside range")
		}
		if factor != 0 && !within(factor, tiny, 1e6) {
			t.Skip("scale factor outside range")
		}
		scale := factor
		if scale == 0 {
			scale = 1
		}
		var a Arrival
		switch kind % 6 {
		case 0:
			if !rateOK(x) {
				t.Skip()
			}
			a = Periodic{Rate: x}
		case 1:
			if !rateOK(x) {
				t.Skip()
			}
			a = Poisson{Rate: x}
		case 2:
			if !within(x, 1e-6, 1e4) || !within(y, 0, 1e4) || !rateOK(z) {
				t.Skip()
			}
			a = Bursty{OnSec: x, OffSec: y, Rate: z}
		case 3:
			if !(rateOK(x) && rateOK(y) && within(z, 1e-6, 1e12)) {
				t.Skip()
			}
			a = MMPP{RatesPerSec: []float64{x, y}, MeanSojournSec: []float64{z, z}}
		case 4:
			peak := z
			if peak == 0 {
				peak = 2 / des.Time(period).Seconds()
			}
			if !within(x, 1e-6, 1e4) || !rateOK(y) || !rateOK(z) || x*peak*scale > 1e6 {
				t.Skip()
			}
			a = Diurnal{PeriodSec: x, MinRate: y, MaxRate: z}
		case 5:
			if x != 0 && !within(x, tiny, 1e6) {
				t.Skip()
			}
			a = Trace{Data: SyntheticTrace("fuzz", 1, 20, 2, 2), Speed: x}
		}
		if factor != 0 {
			a = a.Scale(factor)
		}
		if err := a.Validate(); err != nil {
			t.Skip(err)
		}
		task := ArrivalTask{Index: 0, Count: 1, Period: des.Time(period), Offset: des.Time(offset), Jitter: des.Time(jitter), Horizon: horizon}
		p := a.start(&procSlot{}, task, des.NewRNG(seed).Fork(1))
		prev := des.Time(0)
		for i := 0; i < 256; i++ {
			at, ok := p.Next()
			if !ok {
				break
			}
			if at < prev {
				t.Fatalf("%s: instant %d (%v) before %v", a.Name(), i, at, prev)
			}
			prev = at
		}
	})
}
