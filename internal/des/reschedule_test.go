package des

import (
	"math/rand"
	"sort"
	"testing"
)

// modelEvent mirrors one engine event in the reference model of the churn
// property test: the authoritative firing key the engine must respect.
type modelEvent struct {
	id        int
	at        Time
	seq       uint64
	cancelled bool
	fired     bool
}

// TestRescheduleChurnPreservesOrder drives the engine through randomized
// interleavings of scheduling, rescheduling (later, earlier, and to the same
// instant — the no-move rule), and Cancel on one keyed event per item, then
// checks that events fire exactly in (time, sequence) order of their last
// effective reschedule. The reference model re-derives that order
// independently, so later moves, earlier moves, and the no-move skip all
// have to agree with eager semantics.
func TestRescheduleChurnPreservesOrder(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 42))
		eng := NewEngine()

		var model []*modelEvent
		var handles []*Event
		var fired []int
		// modelSeq mirrors the engine's sequence counter. Every schedule
		// consumes one; a reschedule consumes one unless it is a no-move.
		var modelSeq uint64

		schedule := func(at Time) {
			me := &modelEvent{id: len(model), at: at, seq: modelSeq}
			modelSeq++
			model = append(model, me)
			me2 := me
			handles = append(handles, schedKeyed(eng, at, "churn", func(now Time) {
				if now != me2.at {
					t.Fatalf("trial %d: event %d fired at %v, model says %v", trial, me2.id, now, me2.at)
				}
				me2.fired = true
				fired = append(fired, me2.id)
			}))
		}

		// Seed a population, then churn: the engine never runs during the
		// churn phase, so every operation lands on a pending event.
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			schedule(Time(rng.Intn(1000)))
		}
		ops := 5 + rng.Intn(200)
		for i := 0; i < ops; i++ {
			switch rng.Intn(10) {
			case 0: // add another event
				schedule(Time(rng.Intn(1000)))
			case 1: // cancel one
				id := rng.Intn(len(model))
				if !model[id].cancelled {
					eng.Cancel(handles[id])
					model[id].cancelled = true
				}
			default: // reschedule one (later, earlier, or no-move)
				id := rng.Intn(len(model))
				if model[id].cancelled {
					continue
				}
				var at Time
				switch rng.Intn(4) {
				case 0:
					at = model[id].at // no-move: keeps time AND sequence
				default:
					at = Time(rng.Intn(1000))
				}
				reschedule(eng, handles[id], at)
				if at != model[id].at {
					model[id].at = at
					model[id].seq = modelSeq
					modelSeq++
				}
			}
		}

		eng.Run()

		// The model's expected firing order: live events by (at, seq).
		var want []*modelEvent
		for _, me := range model {
			if !me.cancelled {
				want = append(want, me)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, model expects %d", trial, len(fired), len(want))
		}
		for i, me := range want {
			if fired[i] != me.id {
				t.Fatalf("trial %d: firing order diverges at %d: got event %d, want %d", trial, i, fired[i], me.id)
			}
			if !me.fired {
				t.Fatalf("trial %d: model event %d never fired", trial, me.id)
			}
		}
	}
}

// TestRescheduleNoMoveKeepsOrder pins the no-move fast path's tie semantics:
// an event rescheduled to its own instant keeps its original sequence
// number, so it still fires before a later-scheduled event at the same time.
func TestRescheduleNoMoveKeepsOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	first := schedKeyed(eng, Time(50), "first", func(Time) { order = append(order, "first") })
	eng.ScheduleFunc(Time(50), "second", func(Time) { order = append(order, "second") })
	seqBefore := eng.seq
	reschedule(eng, first, Time(50)) // no-move: must not re-stamp the sequence
	if eng.seq != seqBefore {
		t.Fatalf("no-move reschedule consumed a sequence number")
	}
	eng.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

// TestRescheduleLaterIsDeferred pins the later move: the event fires at —
// and only at — its new instant, not at its first one, and its new key
// orders correctly against intervening events.
func TestRescheduleLaterIsDeferred(t *testing.T) {
	eng := NewEngine()
	var order []string
	ev := schedKeyed(eng, Time(10), "moved", func(now Time) {
		if now != Time(300) {
			t.Fatalf("moved event fired at %v, want 300", now)
		}
		order = append(order, "moved")
	})
	reschedule(eng, ev, Time(300))
	eng.RunUntil(Time(10))
	if len(order) != 0 || eng.Now() != Time(10) {
		t.Fatalf("by its first instant: order = %v, clock %v; want [] and 10", order, eng.Now())
	}
	eng.ScheduleFunc(Time(200), "mid", func(Time) { order = append(order, "mid") })
	// Same instant as the moved event but scheduled afterwards: the moved
	// event's sequence number is older, so it fires first.
	eng.ScheduleFunc(Time(300), "tie", func(Time) { order = append(order, "tie") })
	eng.Run()
	if len(order) != 3 || order[0] != "mid" || order[1] != "moved" || order[2] != "tie" {
		t.Fatalf("order = %v, want [mid moved tie]", order)
	}
}

// TestRunUntilWithStaleRoot pins the horizon check against later moves: an
// event first keyed below the horizon and then moved beyond it must not
// fire, and the clock must land exactly on the horizon.
func TestRunUntilWithStaleRoot(t *testing.T) {
	eng := NewEngine()
	firedAt := Time(-1)
	ev := schedKeyed(eng, Time(10), "late", func(now Time) { firedAt = now })
	reschedule(eng, ev, Time(500))
	eng.RunUntil(Time(100))
	if firedAt != Time(-1) {
		t.Fatalf("moved event fired at %v before its instant", firedAt)
	}
	if eng.Now() != Time(100) {
		t.Fatalf("clock = %v, want horizon 100", eng.Now())
	}
	eng.RunUntil(Time(1000))
	if firedAt != Time(500) {
		t.Fatalf("moved event fired at %v, want 500", firedAt)
	}
}

// TestAfterArgMonotoneLane covers the O(1) monotone lane: interleaving with
// heap events preserves (time, sequence) order, same-instant ties resolve by
// schedule order, and out-of-order monotone scheduling panics.
func TestAfterArgMonotoneLane(t *testing.T) {
	eng := NewEngine()
	var order []string
	noteArg := func(now Time, arg any) { order = append(order, arg.(string)) }
	note := func(label string) func(Time) {
		return func(Time) { order = append(order, label) }
	}
	// Heap event at 30, monotone at 20 and 40, heap tie at 40 scheduled
	// after the monotone event.
	eng.ScheduleFunc(Time(30), "h30", note("h30"))
	eng.AfterArgMonotone(Time(20), "m20", noteArg, "m20")
	eng.AfterArgMonotone(Time(40), "m40", noteArg, "m40")
	eng.ScheduleFunc(Time(40), "h40", note("h40"))
	eng.Run()
	want := "[m20 h30 m40 h40]"
	if got := sprint(order); got != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after drain", eng.Pending())
	}

	// The lane contract: scheduling a monotone event before the pending
	// tail is a bug and panics.
	eng2 := NewEngine()
	eng2.ScheduleFunc(Time(1000), "hold", func(now Time) {
		// now = 1000: a monotone event at now+0 while one pends at 1005
		// violates monotonicity.
		eng2.AfterArgMonotone(Time(5), "ok", noteArg, "x")
		defer func() {
			if recover() == nil {
				t.Error("out-of-order monotone schedule did not panic")
			}
		}()
		eng2.AfterArgMonotone(Time(0), "bad", noteArg, "y")
	})
	eng2.Run()

	// Reset drains the lane back into the pool.
	eng3 := NewEngine()
	eng3.AfterArgMonotone(Time(5), "m", noteArg, "m")
	if eng3.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", eng3.Pending())
	}
	eng3.Reset()
	if eng3.Pending() != 0 || eng3.FreeEvents() != 1 {
		t.Fatalf("reset did not recycle the monotone lane: pending=%d free=%d", eng3.Pending(), eng3.FreeEvents())
	}
}

func sprint(ss []string) string {
	out := "["
	for i, s := range ss {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out + "]"
}
