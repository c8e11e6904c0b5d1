package des

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := FromMillis(2.5); got != 2500*Microsecond {
		t.Errorf("FromMillis(2.5) = %v, want 2.5ms", got)
	}
	if got := FromMicros(3); got != 3*Microsecond {
		t.Errorf("FromMicros(3) = %v, want 3us", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
}

// TestFromSecondsSaturates: durations past the nanosecond clock's range
// saturate at Never instead of wrapping negative, and in-range conversions
// keep the exact round-to-nearest result.
func TestFromSecondsSaturates(t *testing.T) {
	for _, s := range []float64{9.23e9, 1e10, 1e12, math.MaxFloat64, math.Inf(1)} {
		if got := FromSeconds(s); got != Never {
			t.Errorf("FromSeconds(%v) = %d, want Never", s, int64(got))
		}
	}
	for _, s := range []float64{0, 1e-9, 0.4e-9, 1.5, 4, 300, 1e6, 9.2e9} {
		if got, want := FromSeconds(s), Time(s*float64(Second)+0.5); got != want {
			t.Errorf("FromSeconds(%v) = %d, want %d", s, int64(got), int64(want))
		}
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := Never.Add(Second); got != Never {
		t.Errorf("Never.Add = %v, want Never", got)
	}
	if got := Time(1).Add(Never); got != Never {
		t.Errorf("Add(Never) = %v, want Never", got)
	}
	big := Time(1<<63 - 10)
	if got := big.Add(100); got != Never {
		t.Errorf("overflowing Add = %v, want Never", got)
	}
	if got := Time(5).Add(7); got != 12 {
		t.Errorf("5+7 = %v, want 12", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String() = %q", got)
	}
	if got := (12 * Millisecond).String(); got != "12ms" {
		t.Errorf("12ms String = %q", got)
	}
}

func TestFromSecondsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSeconds(-1) did not panic")
		}
	}()
	FromSeconds(-1)
}

// schedKeyed queues fn at the absolute instant at as a keyed event under a
// fresh sequence number, returning the caller-owned handle the cancel and
// reschedule tests drive.
func schedKeyed(e *Engine, at Time, label string, fn func(now Time)) *Event {
	ev := new(Event)
	ev.InitKeyed(label, func(now Time, _ any) { fn(now) }, nil)
	e.RescheduleKeyed(ev, at, e.NextSeq())
	return ev
}

// reschedule moves the keyed event ev to at under a fresh sequence number,
// except that a queued event moved to its own instant keeps its key — and
// with it its place among same-instant events — and consumes none: the
// no-move rule the GPU device applies to its completion keys.
func reschedule(e *Engine, ev *Event, at Time) {
	if queued(ev) && ev.at == at {
		return
	}
	e.RescheduleKeyed(ev, at, e.NextSeq())
}

// queued reports whether ev is in the queue (neither fired nor cancelled).
func queued(ev *Event) bool { return ev.index >= 0 }

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleFunc(30*Millisecond, "c", func(Time) { order = append(order, 3) })
	e.ScheduleFunc(10*Millisecond, "a", func(Time) { order = append(order, 1) })
	e.ScheduleFunc(20*Millisecond, "b", func(Time) { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30*Millisecond {
		t.Errorf("final Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleFunc(Millisecond, "tie", func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending", order)
		}
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleFunc(10*Millisecond, "x", func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("schedule in the past did not panic")
		}
	}()
	e.ScheduleFunc(5*Millisecond, "past", func(Time) {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.ScheduleFunc(Millisecond, "nil", nil)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := schedKeyed(e, Millisecond, "x", func(Time) { fired = true })
	if !queued(ev) {
		t.Fatal("event not pending after schedule")
	}
	e.Cancel(ev)
	if queued(ev) {
		t.Fatal("event pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var at Time
	ev := schedKeyed(e, Millisecond, "x", func(now Time) { at = now })
	reschedule(e, ev, 5*Millisecond)
	e.Run()
	if at != 5*Millisecond {
		t.Errorf("fired at %v, want 5ms", at)
	}
	// Re-queue after firing.
	reschedule(e, ev, 9*Millisecond)
	e.Run()
	if at != 9*Millisecond {
		t.Errorf("refired at %v, want 9ms", at)
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.ScheduleFunc(Millisecond, "a", func(Time) { count++ })
	e.ScheduleFunc(Second, "b", func(Time) { count++ })
	e.RunUntil(100 * Millisecond)
	if count != 1 {
		t.Errorf("fired %d events, want 1", count)
	}
	if e.Now() != 100*Millisecond {
		t.Errorf("Now = %v, want horizon 100ms", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(2 * Second)
	if count != 2 {
		t.Errorf("fired %d events, want 2", count)
	}
}

func TestEngineSelfScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		if count < 100 {
			e.AfterFunc(Millisecond, "tick", tick)
		}
	}
	e.AfterFunc(Millisecond, "tick", tick)
	e.Run()
	if count != 100 {
		t.Errorf("ticks = %d, want 100", count)
	}
	if e.Now() != 100*Millisecond {
		t.Errorf("Now = %v, want 100ms", e.Now())
	}
	if e.Fired() != 100 {
		t.Errorf("Fired = %d, want 100", e.Fired())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds produced the same first value")
	}
}

func TestRNGForkOrderIndependent(t *testing.T) {
	a := NewRNG(7)
	a.Uint64()
	a.Uint64()
	// Fork depends on the *seed*, not on consumption. Forking after draws
	// changes the parent state, so compare forks from fresh parents.
	f1 := NewRNG(7).Fork(1).Uint64()
	f2 := NewRNG(7).Fork(1).Uint64()
	if f1 != f2 {
		t.Error("fork not deterministic")
	}
	if NewRNG(7).Fork(1).Uint64() == NewRNG(7).Fork(2).Uint64() {
		t.Error("different salts produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varv := sum2/n - mean*mean
	if mean < 9.95 || mean > 10.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if varv < 3.8 || varv > 4.2 {
		t.Errorf("var = %v, want ~4", varv)
	}
}

func TestRNGTruncNormalBounds(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(0, 100, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if mean < 4.9 || mean > 5.1 {
		t.Errorf("Exp mean = %v, want ~5", mean)
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// scheduling order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			e.ScheduleFunc(Time(off)*Microsecond, "p", func(now Time) {
				fired = append(fired, now)
			})
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
