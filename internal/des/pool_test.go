package des

import "testing"

// TestCancelThenRescheduleStillFires pins the keyed-event contract the
// event pool must not break: a cancelled event can be revived with
// RescheduleKeyed and fires exactly once at the new instant.
func TestCancelThenRescheduleStillFires(t *testing.T) {
	e := NewEngine()
	var fired []Time
	ev := schedKeyed(e, Millisecond, "x", func(now Time) { fired = append(fired, now) })
	e.Cancel(ev)
	if queued(ev) {
		t.Fatal("cancelled event still pending")
	}
	reschedule(e, ev, 3*Millisecond)
	if !queued(ev) {
		t.Fatal("rescheduled event not pending")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 3*Millisecond {
		t.Fatalf("fired = %v, want exactly once at 3ms", fired)
	}
}

// TestCancelAfterRemovalThenReschedule exercises the cancellation corner:
// the event is cancelled while queued (removed from the keyed lane), then
// revived, then cancelled again before it can fire.
func TestCancelAfterRemovalThenReschedule(t *testing.T) {
	e := NewEngine()
	count := 0
	ev := schedKeyed(e, Millisecond, "x", func(Time) { count++ })
	e.Cancel(ev)
	reschedule(e, ev, 2*Millisecond)
	e.Cancel(ev)
	e.Run()
	if count != 0 {
		t.Fatalf("doubly-cancelled event fired %d times", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}

// TestPoolReuseNeverResurrectsFiredCallback is the pool-safety test: after a
// detached event fires and its Event struct is reused for a later schedule,
// the original callback must never run again — under plain reuse, under
// cancel, and under reschedule of unrelated keyed events.
func TestPoolReuseNeverResurrectsFiredCallback(t *testing.T) {
	e := NewEngine()
	var aFired, bFired int
	e.AfterFunc(Millisecond, "a", func(Time) { aFired++ })
	e.Run()
	if aFired != 1 {
		t.Fatalf("a fired %d times, want 1", aFired)
	}
	if e.FreeEvents() != 1 {
		t.Fatalf("free list has %d events after one detached fire, want 1", e.FreeEvents())
	}
	// The next schedule reuses a's Event struct from the pool.
	e.AfterFunc(Millisecond, "b", func(Time) { bFired++ })
	if e.FreeEvents() != 0 {
		t.Fatal("pool not reused for the second detached event")
	}
	e.Run()
	if aFired != 1 {
		t.Fatalf("pool reuse resurrected a's callback (fired %d times)", aFired)
	}
	if bFired != 1 {
		t.Fatalf("b fired %d times, want 1", bFired)
	}
}

// TestPoolStaysBoundedUnderChurn: a long schedule/fire chain must recycle
// through a bounded pool instead of growing the free list or the heap.
func TestPoolStaysBoundedUnderChurn(t *testing.T) {
	e := NewEngine()
	const rounds = 10000
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		if count < rounds {
			e.AfterFunc(Millisecond, "tick", tick)
		}
	}
	e.AfterFunc(Millisecond, "tick", tick)
	e.Run()
	if count != rounds {
		t.Fatalf("fired %d, want %d", count, rounds)
	}
	if e.FreeEvents() > 2 {
		t.Fatalf("free list grew to %d events under sequential churn, want ≤ 2", e.FreeEvents())
	}
}

// TestArgCallbacksDeliverArgAndOrder: the arg-style variants must deliver
// the scheduled argument and preserve (time, sequence) firing order mixed
// with closure events.
func TestArgCallbacksDeliverArgAndOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	record := func(_ Time, arg any) { order = append(order, arg.(int)) }
	var two Event
	two.InitKeyed("two", record, 2)
	e.RescheduleKeyed(&two, 2*Millisecond, e.NextSeq())
	e.AfterArg(Millisecond, "one", record, 1)
	e.ScheduleFunc(3*Millisecond, "three", func(Time) { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

// TestRetainedRescheduleAfterFireRequeues pins the documented semantics the
// GPU engine relies on: rescheduling an already-fired keyed event re-queues
// it with its original callback.
func TestRetainedRescheduleAfterFireRequeues(t *testing.T) {
	e := NewEngine()
	count := 0
	ev := schedKeyed(e, Millisecond, "x", func(Time) { count++ })
	e.Run()
	reschedule(e, ev, e.Now().Add(Millisecond))
	e.Run()
	if count != 2 {
		t.Fatalf("fired %d times, want 2 (fire, requeue, fire)", count)
	}
}

// TestHeapRemoveMiddle exercises the keyed lane's swap-remove with
// cancellations from the middle of a large queue.
func TestHeapRemoveMiddle(t *testing.T) {
	e := NewEngine()
	const n = 200
	events := make([]*Event, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		events[i] = schedKeyed(e, Time(i+1)*Millisecond, "x", func(Time) { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 3 {
		e.Cancel(events[i])
	}
	e.Run()
	want := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		if fired[want] != i {
			t.Fatalf("fired[%d] = %d, want %d (out of order after removals)", want, fired[want], i)
		}
		want++
	}
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d", len(fired), want)
	}
}

// TestEventArenaGrowth pins the event arena: a fresh engine reaching a peak
// of 4,096 pending events carves them in O(log peak) allocations (20
// chunks at the slab's 1.25 growth and two chunk lists, where one per event
// took 4,096), a
// reset engine reruns the same schedule without allocating, and a carved
// event starts unqueued, so the keyed-only operations still refuse it.
func TestEventArenaGrowth(t *testing.T) {
	const peak = 4096
	nop := func(Time, any) {}
	schedule := func(e *Engine) {
		for i := range peak {
			e.AfterArg(Time(i+1), "x", nop, nil)
		}
	}
	// The heap slice grows on its own, as any slice does; sizing it up
	// front leaves the events as the only thing the schedule allocates.
	var fresh []*Engine
	for range 2 {
		e := NewEngine()
		e.queue = make([]*Event, 0, peak)
		fresh = append(fresh, e)
	}
	allocs := testing.AllocsPerRun(1, func() {
		schedule(fresh[0])
		fresh = fresh[1:]
	})
	if bound := 2 * 12.0; allocs > bound {
		t.Errorf("fresh engine: %v allocations to reach %d pending events, want ≤ 2·log₂(%d) = %v", allocs, peak, peak, bound)
	}

	e := NewEngine()
	schedule(e)
	if allocs := testing.AllocsPerRun(2, func() {
		e.Reset()
		schedule(e)
	}); allocs != 0 {
		t.Errorf("reset engine: %v allocations to rerun the schedule, want 0", allocs)
	}

	ev := NewEngine().get(Millisecond, 0, "carved")
	if queued(ev) {
		t.Fatalf("carved event has index %d, want unqueued (-1)", ev.index)
	}
	for name, op := range map[string]func(){
		"Cancel":          func() { e.Cancel(ev) },
		"RescheduleKeyed": func() { e.RescheduleKeyed(ev, Millisecond, e.NextSeq()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a carved detached event did not panic", name)
				}
			}()
			op()
		}()
	}
}
