package des

import "fmt"

// Event is a scheduled callback.
//
// Events come in two ownership flavours. Detached events (ScheduleFunc,
// AfterFunc, AfterArg, AfterArgMonotone) never escape the engine: no pointer
// is returned, so they cannot be cancelled or rescheduled, and the engine
// recycles them automatically the moment they fire. Recycling clears the
// callback before the event re-enters the pool, so a reused Event can never
// resurrect a previous occupant's callback.
//
// Keyed events (InitKeyed, RescheduleKeyed) are owned by the caller: they
// may be cancelled and rescheduled — even after firing — and their firing
// key is one the caller supplies: a sequence number reserved earlier with
// NextSeq instead of a fresh one. One keyed event can then stand in for a
// whole set of firing keys its owner tracks outside the queue — the GPU
// device holds its one completion timer at the least key of its running
// kernels — and the engine orders it exactly as it would the event that key
// was reserved for.
type Event struct {
	at  Time
	seq uint64
	// index is the event's heap position, or for a keyed event its
	// position in the keyed lane; -1 when not queued (and always for
	// monotone-lane events, which are found by the lane head instead).
	index int
	// fnArg is the callback. The arg form lets hot paths use a shared
	// package-level function plus a context value instead of allocating a
	// fresh closure per event; ScheduleFunc stores its plain func(Time) as
	// arg under callFunc, which costs no allocation (a func value fills
	// the interface word).
	fnArg func(now Time, arg any)
	arg   any
	label string
	// keyed marks InitKeyed events. Their owner keeps them for good: the
	// engine never pools them, and EncodePending leaves them out (the
	// owner supplies the keys they stand for). Every other event is
	// detached: engine-owned and auto-recycled when it fires.
	keyed bool
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all callbacks run on the goroutine that calls Run.
//
// The pending events live in three structures: a concrete binary heap over
// (time, sequence) keys — no container/heap interface dispatch — for
// detached events, the monotone lane, and the keyed lane. Fired detached
// events return to a free list, so steady-state simulation schedules
// without allocating. Because every pending key carries a unique sequence
// number, comparisons never tie: dispatch fires the (time, sequence)-least
// event across the three, so the firing order is a pure function of the
// schedule calls, independent of which structure holds an event, of the
// heap's internal layout, or of event reuse.
type Engine struct {
	now   Time
	seq   uint64
	queue []*Event
	// mono is the monotone lane: a head-indexed FIFO for detached events
	// whose firing instants are nondecreasing by construction
	// (AfterArgMonotone). Constant-delay hot paths — one kernel-launch
	// event per kernel in the GPU model — enqueue and dequeue in O(1)
	// here instead of paying two heap walks each. Events in the lane
	// carry sequence numbers from the same counter as heap events, and
	// dispatch always fires the (time, sequence)-least event across all
	// three structures, so the lane is invisible in the firing order.
	mono     []*Event
	monoHead int
	// keyed is the keyed lane: the queued keyed events, unordered, each
	// at its index. Keyed events are few — one completion timer per GPU
	// device — and their owners move them far more often than they fire
	// (every rate change re-keys the timer), so the lane makes a move an
	// O(1) key write and Cancel a swap-remove, and dispatch finds the
	// least keyed event by a linear scan. keyedBuf backs it up to eight
	// keyed events, so a new engine arms a fleet's timers without
	// allocating.
	keyed    []*Event
	keyedBuf [8]*Event
	free     []*Event
	stopped  bool
	fired    uint64
	stats    HeapStats
	// encScratch is EncodePending's reused sort buffer (see warp.go).
	encScratch []Pending
}

// NewEngine returns an engine positioned at the simulation epoch.
func NewEngine() *Engine {
	e := &Engine{}
	e.keyed = e.keyedBuf[:0]
	return e
}

// Now reports the current simulated instant.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.queue) + len(e.mono) - e.monoHead + len(e.keyed) }

// FreeEvents reports the size of the event free list (diagnostics/tests).
func (e *Engine) FreeEvents() int { return len(e.free) }

// HeapStats counts the engine's heap work since construction or the last
// Reset. It is a host-cost diagnostic: the counts depend on how callers
// schedule, never on what the simulation computes.
type HeapStats struct {
	// Pushes counts heap insertions: detached events scheduled off the
	// monotone lane. Keyed events never enter the heap.
	Pushes uint64
}

// HeapStats reports the heap work counters (see HeapStats).
func (e *Engine) HeapStats() HeapStats { return e.stats }

// NextSeq reserves the next sequence number, exactly as scheduling an event
// would consume it, for a firing key the caller keeps itself and may later
// hand to RescheduleKeyed.
func (e *Engine) NextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// get pops an event from the free list (or allocates one) and stamps it with
// the key (at, seq) and the label. The returned event carries no callback
// yet. A pooled event is stamped, not overwritten: release already cleared
// it to an unqueued zero event, the state a new one starts in.
func (e *Engine) get(at Time, seq uint64, label string) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{index: -1}
	}
	ev.at, ev.seq, ev.label = at, seq, label
	return ev
}

// release clears ev (dropping its callback and argument so the pool never
// retains them) and pushes it onto the free list. ev must not be queued.
func (e *Engine) release(ev *Event) {
	*ev = Event{index: -1}
	e.free = append(e.free, ev)
}

func (e *Engine) checkSchedule(at Time, label string, ok bool) {
	if at < e.now {
		panic(fmt.Sprintf("des: schedule %q at %v before now %v", label, at, e.now))
	}
	if !ok {
		panic("des: schedule with nil callback")
	}
}

// ScheduleFunc queues the fire-and-forget callback fn to run at the absolute
// instant at: no handle is returned, so the event cannot be cancelled or
// rescheduled, and the engine recycles it automatically when it fires.
// Scheduling in the past panics: that is always a simulation bug, and
// silently clamping it would hide ordering errors. The label is for
// diagnostics and traces.
func (e *Engine) ScheduleFunc(at Time, label string, fn func(now Time)) {
	e.checkSchedule(at, label, fn != nil)
	ev := e.get(at, e.NextSeq(), label)
	ev.fnArg = callFunc
	ev.arg = fn
	e.push(ev)
}

// callFunc is the callback of every ScheduleFunc event: arg is the
// scheduled func(Time).
func callFunc(now Time, arg any) { arg.(func(now Time))(now) }

// AfterFunc is ScheduleFunc relative to the current instant.
func (e *Engine) AfterFunc(d Time, label string, fn func(now Time)) {
	e.ScheduleFunc(e.now.Add(d), label, fn)
}

// InitKeyed readies ev as an unqueued keyed event whose callback receives
// arg at fire time. ev is the caller's for good — typically a value field of
// a longer-lived struct, so it needs no allocation of its own: the engine
// never pools it, Reset merely unqueues it, RescheduleKeyed queues and moves
// it, Cancel parks it, and EncodePending skips it, because the keys it
// stands for reach the fingerprint as the owner's extra entries.
func (ev *Event) InitKeyed(label string, fn func(now Time, arg any), arg any) {
	if fn == nil {
		panic("des: keyed event with nil callback")
	}
	*ev = Event{index: -1, label: label, fnArg: fn, arg: arg, keyed: true}
}

// keyedOnly panics unless ev went through InitKeyed: a zero Event would
// otherwise read as queued (index 0) and silently never fire.
func keyedOnly(ev *Event, op string) {
	if !ev.keyed {
		panic(fmt.Sprintf("des: %s on non-keyed event %q (InitKeyed it first)", op, ev.label))
	}
}

// AfterArg queues a detached (fire-and-forget, auto-recycled) event whose
// callback receives arg, d after the current instant.
func (e *Engine) AfterArg(d Time, label string, fn func(now Time, arg any), arg any) {
	at := e.now.Add(d)
	e.checkSchedule(at, label, fn != nil)
	ev := e.get(at, e.NextSeq(), label)
	ev.fnArg = fn
	ev.arg = arg
	e.push(ev)
}

// AfterArgMonotone is AfterArg for callers that schedule with a fixed delay:
// because the clock never runs backwards, successive calls with one constant
// d produce nondecreasing firing instants, and the event can ride the O(1)
// monotone lane instead of the heap. Scheduling out of order (an instant
// before a still-pending monotone event) panics — that means the caller's
// delay is not actually constant.
func (e *Engine) AfterArgMonotone(d Time, label string, fn func(now Time, arg any), arg any) {
	at := e.now.Add(d)
	e.checkSchedule(at, label, fn != nil)
	if n := len(e.mono); n > e.monoHead && at < e.mono[n-1].at {
		panic(fmt.Sprintf("des: monotone schedule %q at %v before pending %v", label, at, e.mono[n-1].at))
	}
	ev := e.get(at, e.NextSeq(), label)
	ev.fnArg = fn
	ev.arg = arg
	// A lane that never drains never rewinds. When it fills its backing
	// array with at least half of it popped, the live tail moves to the
	// front instead of the array growing, so the array stays within about
	// four times the lane's peak length. Each move is paid for by as many
	// pops, so scheduling stays O(1) amortized.
	if n := len(e.mono); n == cap(e.mono) && e.monoHead > 0 && 2*e.monoHead >= n {
		live := copy(e.mono, e.mono[e.monoHead:])
		clear(e.mono[e.monoHead:])
		e.mono = e.mono[:live]
		e.monoHead = 0
	}
	e.mono = append(e.mono, ev)
}

// popMono drops the monotone-lane head, rewinding the backing array once
// the lane drains (the same reclaim discipline as the GPU stream FIFOs).
func (e *Engine) popMono() {
	e.mono[e.monoHead] = nil
	e.monoHead++
	if e.monoHead == len(e.mono) {
		e.mono = e.mono[:0]
		e.monoHead = 0
	}
}

// Cancel removes the keyed event ev from the keyed lane if it has not
// fired, so the queue never holds a cancelled event: the lane's last event
// takes its slot. Cancelling nil, an already-fired or an already-cancelled
// event is a no-op; cancelling an event InitKeyed never readied panics.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	keyedOnly(ev, "Cancel")
	if ev.index >= 0 {
		e.unqueueKeyed(ev)
	}
}

// unqueueKeyed swap-removes the queued keyed event ev from the keyed lane.
func (e *Engine) unqueueKeyed(ev *Event) {
	n := len(e.keyed) - 1
	last := e.keyed[n]
	e.keyed[ev.index] = last
	last.index = ev.index
	e.keyed[n] = nil
	e.keyed = e.keyed[:n]
	ev.index = -1
}

// RescheduleKeyed moves ev to the key (at, seq), queueing it in the keyed
// lane if it is not queued (never armed, fired, or cancelled). seq was
// reserved with NextSeq; the call consumes none. The lane is unordered, so
// the move is a key write whichever way it goes. ev must have gone through
// InitKeyed.
func (e *Engine) RescheduleKeyed(ev *Event, at Time, seq uint64) {
	keyedOnly(ev, "RescheduleKeyed")
	if at < e.now {
		panic(fmt.Sprintf("des: reschedule %q at %v before now %v", ev.label, at, e.now))
	}
	ev.at, ev.seq = at, seq
	if ev.index < 0 {
		ev.index = len(e.keyed)
		e.keyed = append(e.keyed, ev)
	}
}

// Stop makes the current Run call return after the in-flight callback.
func (e *Engine) Stop() { e.stopped = true }

// Reset returns the engine to the simulation epoch while keeping its event
// free list, so a reused engine schedules without allocating from its first
// event on. Every still-pending detached event is recycled into the pool;
// keyed events are unqueued but stay with their owner, who re-arms them
// with RescheduleKeyed. After Reset the engine is
// indistinguishable from NewEngine() — clock at zero, sequence counter and
// heap counters at zero — so a run on a reset engine is bit-identical to
// one on a fresh engine.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		e.queue[i] = nil
		e.release(ev)
	}
	e.queue = e.queue[:0]
	for i, ev := range e.keyed {
		e.keyed[i] = nil
		ev.index = -1
	}
	e.keyed = e.keyed[:0]
	for i := e.monoHead; i < len(e.mono); i++ {
		ev := e.mono[i]
		e.mono[i] = nil
		e.release(ev)
	}
	e.mono = e.mono[:0]
	e.monoHead = 0
	e.now, e.seq, e.fired, e.stopped = 0, 0, 0, false
	e.stats = HeapStats{}
}

// before reports whether a fires before b in the engine's total (time,
// sequence) order.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// next returns the earliest pending event — the (time, sequence)-least
// across the heap root, the monotone-lane head and the keyed lane — without
// dequeueing it, or nil when nothing is pending.
func (e *Engine) next() *Event {
	var ev *Event
	if len(e.queue) > 0 {
		ev = e.queue[0]
	}
	if e.monoHead < len(e.mono) {
		if m := e.mono[e.monoHead]; ev == nil || before(m, ev) {
			ev = m
		}
	}
	for _, k := range e.keyed {
		if ev == nil || before(k, ev) {
			ev = k
		}
	}
	return ev
}

// fire dequeues ev, which next returned, advances the clock to it, and runs
// its callback.
func (e *Engine) fire(ev *Event) {
	switch {
	case ev.keyed:
		e.unqueueKeyed(ev)
	case ev.index < 0:
		e.popMono()
	default:
		e.pop()
	}
	e.now = ev.at
	e.fired++
	fn, arg := ev.fnArg, ev.arg
	// Detached events re-enter the pool before the callback runs, so the
	// callback itself can reuse the slot for follow-up events. The
	// callback was copied out above: a reused event never carries the old
	// callback (release cleared it).
	if !ev.keyed {
		e.release(ev)
	}
	fn(e.now, arg)
}

// Step fires the single earliest pending event and reports whether one fired.
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// RunUntil fires events in timestamp order until the queue drains, Stop is
// called, or the next event would fire strictly after the horizon. The clock
// is left at min(horizon, last event time) — i.e. it advances to the horizon
// when the queue outlives it.
func (e *Engine) RunUntil(horizon Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.next()
		if ev == nil || ev.at > horizon {
			break
		}
		e.fire(ev)
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// less orders the heap by (time, sequence). Sequence numbers are unique, so
// the order is total and deterministic.
func (e *Engine) less(i, j int) bool { return before(e.queue[i], e.queue[j]) }

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (e *Engine) push(ev *Event) {
	e.stats.Pushes++
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// pop removes the heap minimum, marking it unqueued.
func (e *Engine) pop() {
	n := len(e.queue) - 1
	e.swap(0, n)
	e.queue[n].index = -1
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(0)
	}
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

// down sifts the event at index i toward the leaves.
func (e *Engine) down(i int) {
	n := len(e.queue)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			break
		}
		e.swap(i, least)
		i = least
	}
}
