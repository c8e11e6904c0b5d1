package des

import "testing"

// TestResetReplaysFreshEngine: after Reset, the same schedule calls must
// produce the same (time, order) firing sequence a fresh engine would, and
// the clock/sequence state must match a fresh engine exactly.
func TestResetReplaysFreshEngine(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		e.ScheduleFunc(3*Millisecond, "c", func(now Time) { fired = append(fired, now) })
		e.ScheduleFunc(Millisecond, "a", func(now Time) { fired = append(fired, now) })
		e.AfterFunc(2*Millisecond, "b", func(now Time) { fired = append(fired, now) })
		e.Run()
		return fired
	}

	fresh := NewEngine()
	want := run(fresh)

	reused := NewEngine()
	// Dirty the engine: fire some events, leave others pending.
	reused.AfterFunc(Millisecond, "stale", func(Time) {})
	reused.Run()
	reused.ScheduleFunc(5*Millisecond, "pending", func(Time) { t.Error("pre-reset event fired") })
	reused.Reset()

	if reused.Now() != 0 || reused.Pending() != 0 || reused.Fired() != 0 {
		t.Fatalf("reset engine not at epoch: now=%v pending=%d fired=%d",
			reused.Now(), reused.Pending(), reused.Fired())
	}
	got := run(reused)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestResetRecyclesPendingEvents: events still queued at Reset must land on
// the free list (with their callbacks cleared) and be reused by the next
// schedule — the allocation-free reuse the run session depends on.
func TestResetRecyclesPendingEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.ScheduleFunc(Time(i+1)*Millisecond, "x", func(Time) {})
	}
	e.Reset()
	if e.FreeEvents() != 4 {
		t.Fatalf("free list has %d events after Reset, want 4", e.FreeEvents())
	}
	e.ScheduleFunc(Millisecond, "y", func(Time) {})
	if e.FreeEvents() != 3 {
		t.Fatalf("schedule after Reset did not reuse the pool (%d free)", e.FreeEvents())
	}
}
