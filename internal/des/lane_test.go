package des

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// laneDelay is the fixed delay of every monotone-lane event in a lane trial.
const laneDelay = Time(5)

// laneFire is one firing in a lane trial: what fired and the clock it fired
// at.
type laneFire struct {
	label string
	at    Time
}

// laneSim is one implementation a lane trial drives: the engine under test,
// holding each of K timers' keys in one keyed event (laneEngine), or the
// reference, one plain event per key (laneRef). Each schedule draws one
// sequence number and so does each key added or moved — except a move to
// the key's own instant, which keeps its key (the no-move rule).
type laneSim interface {
	now() Time
	add(timer, id int, at Time)
	move(id int, at Time)
	remove(id int)
	cancel(timer int)
	schedule(at Time)
	monotone()
	runUntil(horizon Time)
	run()
	warp(delta Time)
	reset()
	encode() []byte
}

// laneTag is both sides' identity tag: it sees labels only.
func laneTag(label string, _ any) uint64 { return uint64(len(label)) }

// laneTrial is the seeded driver both sides share: the live keys in
// creation order (so a seeded pick selects the same key on both sides), their
// timers and instants, and the firing log.
type laneTrial struct {
	rng    *rand.Rand
	sim    laneSim
	timers int
	live   []int
	timer  map[int]int
	at     map[int]Time
	nextID int
	log    []laneFire
}

func (tr *laneTrial) addKey(timer int, at Time) {
	id := tr.nextID
	tr.nextID++
	tr.live = append(tr.live, id)
	tr.timer[id], tr.at[id] = timer, at
	tr.sim.add(timer, id, at)
}

func (tr *laneTrial) forget(id int) {
	tr.live = slices.DeleteFunc(tr.live, func(v int) bool { return v == id })
	delete(tr.timer, id)
	delete(tr.at, id)
}

// fired is called by a side when something fires (id is the key, or -1): it
// logs the firing, re-arms a fired key's timer half the time, and churns.
func (tr *laneTrial) fired(label string, id int, now Time) {
	tr.log = append(tr.log, laneFire{label, now})
	if id >= 0 {
		timer := tr.timer[id]
		tr.forget(id)
		if tr.rng.Intn(2) == 0 {
			tr.addKey(timer, now+Time(tr.rng.Intn(8)))
		}
	}
	tr.churn(tr.rng.Intn(3))
}

// churn applies n seeded operations at the current clock. Instants come
// from a narrow window, so same-instant ties across keys, timers, heap and
// monotone events are common.
func (tr *laneTrial) churn(n int) {
	now := tr.sim.now()
	for i := 0; i < n; i++ {
		switch op := tr.rng.Intn(10); {
		case op < 3 || len(tr.live) == 0:
			tr.addKey(tr.rng.Intn(tr.timers), now+Time(tr.rng.Intn(12)))
		case op < 6:
			id := tr.live[tr.rng.Intn(len(tr.live))]
			at := now + Time(tr.rng.Intn(12))
			if tr.rng.Intn(4) == 0 {
				at = tr.at[id]
			}
			tr.sim.move(id, at)
			tr.at[id] = at
		case op < 7:
			id := tr.live[tr.rng.Intn(len(tr.live))]
			tr.sim.remove(id)
			tr.forget(id)
		case op < 8:
			timer := tr.rng.Intn(tr.timers)
			tr.sim.cancel(timer)
			for _, id := range slices.Clone(tr.live) {
				if tr.timer[id] == timer {
					tr.forget(id)
				}
			}
		case op < 9:
			tr.sim.schedule(now + Time(tr.rng.Intn(12)))
		default:
			tr.sim.monotone()
		}
	}
}

// runLaneTrial plays one seeded trial against a side and returns its firing
// log and the pending-set encoding taken at every chunk boundary. One chunk
// boundary warps the clock and a later one resets the engine.
func runLaneTrial(seed int64, timers int, mk func(tr *laneTrial) laneSim) ([]laneFire, [][]byte) {
	tr := &laneTrial{
		rng:    rand.New(rand.NewSource(seed)),
		timers: timers,
		timer:  map[int]int{},
		at:     map[int]Time{},
	}
	tr.sim = mk(tr)
	var encs [][]byte
	tr.churn(10 + tr.rng.Intn(20))
	for chunk := 0; chunk < 24; chunk++ {
		tr.sim.runUntil(tr.sim.now() + Time(tr.rng.Intn(6)))
		encs = append(encs, tr.sim.encode())
		switch chunk {
		case 8:
			delta := Time(1 + tr.rng.Intn(50))
			tr.sim.warp(delta)
			for id := range tr.at {
				tr.at[id] += delta
			}
		case 16:
			tr.sim.reset()
			tr.live, tr.nextID = tr.live[:0], 0
			clear(tr.timer)
			clear(tr.at)
		}
		tr.churn(tr.rng.Intn(4))
		tr.log = append(tr.log, laneFire{"chunk", tr.sim.now()})
	}
	tr.sim.run()
	return tr.log, encs
}

// laneEngine is the side under test: a timer set — one keyed event per
// timer, held at the least key of the timer's own keys — plus heap and
// monotone-lane events on its engine.
type laneEngine struct {
	*timerSet
	tr *laneTrial
}

func newLaneEngine(tr *laneTrial) laneSim {
	s := &laneEngine{tr: tr}
	s.timerSet = newTimerSet(tr.timers, func(id int, now Time) { tr.fired(itemLabel(id), id, now) })
	return s
}

func (s *laneEngine) now() Time { return s.e.Now() }

func (s *laneEngine) schedule(at Time) {
	s.e.ScheduleFunc(at, "bg", func(now Time) { s.tr.fired("bg", -1, now) })
}

func (s *laneEngine) monotone() {
	s.e.AfterArgMonotone(laneDelay, "mono", func(now Time, _ any) { s.tr.fired("mono", -1, now) }, nil)
}

func (s *laneEngine) runUntil(horizon Time) { s.e.RunUntil(horizon) }
func (s *laneEngine) run()                  { s.e.Run() }
func (s *laneEngine) encode() []byte        { return s.e.EncodePending(nil, s.extra, laneTag) }

// refEvent is one plain event of the reference: key is the key id, or -1
// for a heap or monotone event.
type refEvent struct {
	at    Time
	seq   uint64
	label string
	key   int
	timer int
}

// laneRef is the reference model: an unordered list of plain events, one
// per key, fired (time, sequence)-least first by a full scan, and encoded
// in the format EncodePending documents.
type laneRef struct {
	tr     *laneTrial
	clock  Time
	seq    uint64
	events []refEvent
}

func (r *laneRef) now() Time { return r.clock }

func (r *laneRef) push(at Time, label string, key, timer int) {
	r.events = append(r.events, refEvent{at: at, seq: r.seq, label: label, key: key, timer: timer})
	r.seq++
}

func (r *laneRef) findKey(id int) int {
	return slices.IndexFunc(r.events, func(ev refEvent) bool { return ev.key == id })
}

func (r *laneRef) add(timer, id int, at Time) { r.push(at, itemLabel(id), id, timer) }

func (r *laneRef) move(id int, at Time) {
	if i := r.findKey(id); r.events[i].at != at {
		r.events[i].at, r.events[i].seq = at, r.seq
		r.seq++
	}
}

func (r *laneRef) remove(id int) {
	i := r.findKey(id)
	r.events = slices.Delete(r.events, i, i+1)
}

func (r *laneRef) cancel(timer int) {
	r.events = slices.DeleteFunc(r.events, func(ev refEvent) bool { return ev.key >= 0 && ev.timer == timer })
}

func (r *laneRef) schedule(at Time) { r.push(at, "bg", -1, -1) }
func (r *laneRef) monotone()        { r.push(r.clock+laneDelay, "mono", -1, -1) }

func refBefore(a, b refEvent) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// step fires the least event at or before horizon and reports whether one
// fired.
func (r *laneRef) step(horizon Time) bool {
	if len(r.events) == 0 {
		return false
	}
	i := 0
	for j := range r.events {
		if refBefore(r.events[j], r.events[i]) < 0 {
			i = j
		}
	}
	ev := r.events[i]
	if ev.at > horizon {
		return false
	}
	r.events = slices.Delete(r.events, i, i+1)
	r.clock = ev.at
	r.tr.fired(ev.label, ev.key, ev.at)
	return true
}

func (r *laneRef) runUntil(horizon Time) {
	for r.step(horizon) {
	}
	r.clock = max(r.clock, horizon)
}

func (r *laneRef) run() {
	for r.step(Never) {
	}
}

func (r *laneRef) warp(delta Time) {
	r.clock += delta
	for i := range r.events {
		r.events[i].at += delta
	}
}

func (r *laneRef) reset() { r.clock, r.seq, r.events = 0, 0, r.events[:0] }

func (r *laneRef) encode() []byte {
	evs := slices.SortedFunc(slices.Values(r.events), refBefore)
	buf := AppendU64(nil, uint64(len(evs)))
	for _, ev := range evs {
		buf = AppendStr(buf, ev.label)
		buf = AppendU64(buf, laneTag(ev.label, nil))
		buf = AppendTime(buf, ev.at-r.clock)
	}
	return buf
}

// TestKeyedLaneMatchesPlainEvents is the keyed lane's reference test: K ∈
// {1, 3, 8} keyed timers, each held at the least key of its own set, under
// seeded re-arm, move (earlier, later, no-move), drop, cancel and fire
// churn, mixed with heap and monotone-lane events and one clock warp and
// one engine reset per trial, fire in exactly the order and at exactly the
// clock of a plain-event reference with one event per key, and encode their
// pending set byte-identically to it at every chunk boundary.
func TestKeyedLaneMatchesPlainEvents(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 20
	}
	for _, timers := range []int{1, 3, 8} {
		for trial := 0; trial < trials; trial++ {
			seed := int64(1000*timers + trial)
			wantLog, wantEnc := runLaneTrial(seed, timers, func(tr *laneTrial) laneSim { return &laneRef{tr: tr} })
			gotLog, gotEnc := runLaneTrial(seed, timers, newLaneEngine)
			if len(gotLog) != len(wantLog) {
				t.Fatalf("K=%d trial %d: %d firings, want %d", timers, trial, len(gotLog), len(wantLog))
			}
			for i := range wantLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("K=%d trial %d: firing %d = %+v, want %+v", timers, trial, i, gotLog[i], wantLog[i])
				}
			}
			for i := range wantEnc {
				if !bytes.Equal(gotEnc[i], wantEnc[i]) {
					t.Fatalf("K=%d trial %d: pending encoding %d differs", timers, trial, i)
				}
			}
		}
	}
}

// TestKeyedMisusePanics: RescheduleKeyed and Cancel on an event that never
// went through InitKeyed panic, naming the operation, instead of treating
// the zero event (index 0) as queued and never firing it.
func TestKeyedMisusePanics(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		name string
		op   func(ev *Event)
	}{
		{"RescheduleKeyed", func(ev *Event) { e.RescheduleKeyed(ev, 5, e.NextSeq()) }},
		{"Cancel", func(ev *Event) { e.Cancel(ev) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.name+` on non-keyed event ""`) {
					t.Errorf("%s on a zero Event: panic %q, want one naming the misuse and the label", c.name, msg)
				}
			}()
			c.op(new(Event))
		}()
	}
	if e.Pending() != 0 {
		t.Fatalf("misuse left %d events pending", e.Pending())
	}
}
