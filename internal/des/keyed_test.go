package des

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// keyFire is one firing in a keyed-equivalence trial: the item whose key
// fired (-1 for a background event) and the clock it fired at.
type keyFire struct {
	id int
	at Time
}

// keyWorld drives one engine through a trial's item operations. Items are
// firing keys grouped by owner; the two implementations hold them as one
// keyed event per item (the reference) or as one keyed timer per owner at
// its least item key (the scheme under test).
type keyWorld interface {
	add(owner, id int, at Time)
	move(id int, at Time)
	remove(id int)
	warp(delta Time)
	reset()
	engine() *Engine
	extra(dst []Pending) []Pending
}

// keyTrial is the bookkeeping both worlds share: the live items in creation
// order (so a seeded pick selects the same item in both), their owners and
// instants, and the firing log.
type keyTrial struct {
	rng    *rand.Rand
	w      keyWorld
	live   []int
	owner  map[int]int
	at     map[int]Time
	nextID int
	log    []keyFire
	owners int
}

func (tr *keyTrial) addItem(owner int, at Time) {
	id := tr.nextID
	tr.nextID++
	tr.live = append(tr.live, id)
	tr.owner[id], tr.at[id] = owner, at
	tr.w.add(owner, id, at)
}

func (tr *keyTrial) drop(id int) {
	for i, v := range tr.live {
		if v == id {
			tr.live = append(tr.live[:i], tr.live[i+1:]...)
			break
		}
	}
	delete(tr.owner, id)
	delete(tr.at, id)
}

// fired is called by a world when item id fires: it logs the firing and
// runs the seeded follow-up, re-arming the firing owner half the time.
func (tr *keyTrial) fired(id int, now Time) {
	owner := tr.owner[id]
	tr.drop(id)
	tr.log = append(tr.log, keyFire{id, now})
	if tr.rng.Intn(2) == 0 {
		tr.addItem(owner, now+Time(tr.rng.Intn(8)))
	}
	tr.churn(now, 1+tr.rng.Intn(2))
}

// churn applies n seeded operations at clock now. Instants come from a
// narrow window, so same-instant ties are common; moves include no-moves
// (same instant) and earlier and later ones; removals can empty an owner.
func (tr *keyTrial) churn(now Time, n int) {
	e := tr.w.engine()
	for i := 0; i < n; i++ {
		switch op := tr.rng.Intn(10); {
		case op < 4 || len(tr.live) == 0:
			tr.addItem(tr.rng.Intn(tr.owners), now+Time(tr.rng.Intn(12)))
		case op < 8:
			id := tr.live[tr.rng.Intn(len(tr.live))]
			at := now + Time(tr.rng.Intn(12))
			if tr.rng.Intn(4) == 0 {
				at = tr.at[id]
			}
			tr.w.move(id, at)
			tr.at[id] = at
		case op < 9:
			id := tr.live[tr.rng.Intn(len(tr.live))]
			tr.w.remove(id)
			tr.drop(id)
		default:
			e.ScheduleFunc(now+Time(tr.rng.Intn(12)), "bg", func(now Time) {
				tr.log = append(tr.log, keyFire{-1, now})
			})
		}
	}
}

// perKeyWorld is the reference: one keyed event per item, queued under a
// fresh sequence number and moved by reschedule (the no-move rule). The
// engine leaves keyed events out of EncodePending, so the items' keys reach
// it as extra entries, read off the events themselves.
type perKeyWorld struct {
	tr  *keyTrial
	e   *Engine
	evs map[int]*Event
}

func (w *perKeyWorld) engine() *Engine { return w.e }

func (w *perKeyWorld) extra(dst []Pending) []Pending {
	for _, id := range w.tr.live {
		ev := w.evs[id]
		dst = append(dst, Pending{At: ev.at, Seq: ev.seq, Label: ev.label})
	}
	return dst
}

func (w *perKeyWorld) add(_, id int, at Time) {
	w.evs[id] = schedKeyed(w.e, at, itemLabel(id), func(now Time) {
		delete(w.evs, id)
		w.tr.fired(id, now)
	})
}

func (w *perKeyWorld) move(id int, at Time) { reschedule(w.e, w.evs[id], at) }

func (w *perKeyWorld) remove(id int) {
	w.e.Cancel(w.evs[id])
	delete(w.evs, id)
}

func (w *perKeyWorld) warp(delta Time) { w.e.Warp(delta) }

func (w *perKeyWorld) reset() {
	w.e.Reset()
	clear(w.evs)
}

// keyedItem is one firing key an owner keeps outside the queue.
type keyedItem struct {
	id  int
	at  Time
	seq uint64
}

func itemLabel(id int) string { return fmt.Sprint("item", id) }

// timerSet keeps each owner's item keys itself and one keyed timer per
// owner at the least of them; fired hears which item's key fired.
type timerSet struct {
	e      *Engine
	items  [][]keyedItem
	timers []Event
	fired  func(id int, now Time)
}

func newTimerSet(owners int, fired func(id int, now Time)) *timerSet {
	s := &timerSet{e: NewEngine(), items: make([][]keyedItem, owners), timers: make([]Event, owners), fired: fired}
	for o := range s.timers {
		s.timers[o].InitKeyed("timer", s.fire, o)
	}
	return s
}

// extra appends every item key, for EncodePending.
func (s *timerSet) extra(dst []Pending) []Pending {
	for _, its := range s.items {
		for _, it := range its {
			dst = append(dst, Pending{At: it.at, Seq: it.seq, Label: itemLabel(it.id)})
		}
	}
	return dst
}

func (s *timerSet) find(id int) (owner, i int) {
	for o, its := range s.items {
		for i, it := range its {
			if it.id == id {
				return o, i
			}
		}
	}
	panic(fmt.Sprint("no item ", id))
}

// least returns the index of owner's least key.
func (s *timerSet) least(owner int) int {
	its, li := s.items[owner], 0
	for i, it := range its {
		if it.at < its[li].at || (it.at == its[li].at && it.seq < its[li].seq) {
			li = i
		}
	}
	return li
}

func (s *timerSet) arm(owner int) {
	if len(s.items[owner]) == 0 {
		s.e.Cancel(&s.timers[owner])
		return
	}
	it := s.items[owner][s.least(owner)]
	s.e.RescheduleKeyed(&s.timers[owner], it.at, it.seq)
}

func (s *timerSet) fire(now Time, arg any) {
	owner := arg.(int)
	li := s.least(owner)
	it := s.items[owner][li]
	if it.at != now {
		panic(fmt.Sprintf("owner %d timer fired at %v, least key at %v", owner, now, it.at))
	}
	s.items[owner] = slices.Delete(s.items[owner], li, li+1)
	s.arm(owner)
	s.fired(it.id, now)
}

func (s *timerSet) add(owner, id int, at Time) {
	s.items[owner] = append(s.items[owner], keyedItem{id: id, at: at, seq: s.e.NextSeq()})
	s.arm(owner)
}

func (s *timerSet) move(id int, at Time) {
	o, i := s.find(id)
	it := &s.items[o][i]
	if it.at == at {
		return // the engine's no-move rule: key and sequence number kept
	}
	it.at, it.seq = at, s.e.NextSeq()
	s.arm(o)
}

func (s *timerSet) remove(id int) {
	o, i := s.find(id)
	s.items[o] = slices.Delete(s.items[o], i, i+1)
	s.arm(o)
}

// cancel drops every key of owner and parks its timer.
func (s *timerSet) cancel(owner int) {
	s.items[owner] = s.items[owner][:0]
	s.e.Cancel(&s.timers[owner])
}

func (s *timerSet) warp(delta Time) {
	s.e.Warp(delta)
	for _, its := range s.items {
		for i := range its {
			its[i].at += delta
		}
	}
}

func (s *timerSet) reset() {
	s.e.Reset()
	for o := range s.items {
		s.items[o] = s.items[o][:0]
	}
}

// keyedWorld is the timer set as a keyWorld.
type keyedWorld struct{ *timerSet }

func (w keyedWorld) engine() *Engine { return w.e }

// runKeyTrial plays one seeded trial against a world and returns its firing
// log and the pending-set encoding taken at every chunk boundary.
func runKeyTrial(seed int64, owners int, mk func(tr *keyTrial) keyWorld) ([]keyFire, [][]byte) {
	tr := &keyTrial{
		rng:    rand.New(rand.NewSource(seed)),
		owner:  map[int]int{},
		at:     map[int]Time{},
		owners: owners,
	}
	tr.w = mk(tr)
	e := tr.w.engine()
	tag := func(string, any) uint64 { return 0 } // labels name the items
	var encs [][]byte
	tr.churn(0, 10+tr.rng.Intn(20))
	for chunk := 0; chunk < 30; chunk++ {
		e.RunUntil(e.Now() + Time(tr.rng.Intn(6)))
		encs = append(encs, e.EncodePending(nil, tr.w.extra, tag))
		switch {
		case chunk == 15:
			tr.w.reset()
			tr.live, tr.nextID = tr.live[:0], 0
			clear(tr.owner)
			clear(tr.at)
		case tr.rng.Intn(6) == 0:
			delta := Time(1 + tr.rng.Intn(50))
			tr.w.warp(delta)
			for id := range tr.at {
				tr.at[id] += delta
			}
		}
		tr.churn(e.Now(), tr.rng.Intn(4))
		tr.log = append(tr.log, keyFire{-2, e.Now()}) // chunk boundary
	}
	e.Run()
	return tr.log, encs
}

// TestKeyedTimerMatchesPerKeyEvents is the keyed-event equivalence property:
// one keyed event per owner, held at the owner's least (instant, reserved
// sequence) key, fires the owners' keys in exactly the order — and at
// exactly the clock — one keyed event per key would, and the pending-set
// encoding (keyed events skipped, the keys passed as extra entries in both
// worlds) is byte-identical at every chunk boundary. Trials mix same-instant ties,
// no-moves, earlier and later moves, owners
// emptying (timer cancelled) and re-arming after a fire, background events,
// clock warps, and an engine reset mid-trial.
func TestKeyedTimerMatchesPerKeyEvents(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(trial) + 7
		owners := 1 + trial%4
		wantLog, wantEnc := runKeyTrial(seed, owners, func(tr *keyTrial) keyWorld {
			return &perKeyWorld{tr: tr, e: NewEngine(), evs: map[int]*Event{}}
		})
		gotLog, gotEnc := runKeyTrial(seed, owners, func(tr *keyTrial) keyWorld {
			return keyedWorld{newTimerSet(owners, tr.fired)}
		})
		if len(gotLog) != len(wantLog) {
			t.Fatalf("trial %d: %d firings, want %d", trial, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("trial %d: firing %d = %+v, want %+v", trial, i, gotLog[i], wantLog[i])
			}
		}
		for i := range wantEnc {
			if !bytes.Equal(gotEnc[i], wantEnc[i]) {
				t.Fatalf("trial %d: pending encoding %d differs", trial, i)
			}
		}
	}
}

// TestEncodePendingKeyedPlusExtra: a keyed event stood in for by its
// owner's extra entries encodes byte-identically to one detached event per
// key, with the keyed event later-moved and same-instant ties; the timer
// then fires at its last key, ahead of the same-instant event drawn after
// it.
func TestEncodePendingKeyedPlusExtra(t *testing.T) {
	tag := func(label string, _ any) uint64 { return uint64(len(label)) }
	nop := func(Time) {}

	// The reference queues every key as a plain event, drawing the
	// sequence numbers in the keyed world's order: b's first key (3) is
	// superseded by its key at 9, drawn after bg's.
	ref := NewEngine()
	ref.ScheduleFunc(5, "a", nop)
	ref.NextSeq()
	ref.ScheduleFunc(5, "bg", nop)
	ref.ScheduleFunc(9, "b", nop)
	ref.ScheduleFunc(9, "c", nop)

	k := NewEngine()
	var order []string
	var timer Event
	timer.InitKeyed("timer", func(now Time, _ any) { order = append(order, fmt.Sprint("timer@", now)) }, nil)
	keys := []Pending{{At: 5, Seq: k.NextSeq(), Label: "a"}}
	bSeq := k.NextSeq()
	k.ScheduleFunc(5, "bg", func(now Time) { order = append(order, fmt.Sprint("bg@", now)) })
	k.RescheduleKeyed(&timer, 3, bSeq)
	keys = append(keys, Pending{At: 9, Seq: k.NextSeq(), Label: "b"})
	k.RescheduleKeyed(&timer, 5, keys[0].Seq) // the least key is now a's: a later move
	keys = append(keys, Pending{At: 9, Seq: k.NextSeq(), Label: "c"})

	want := ref.EncodePending(nil, nil, tag)
	got := k.EncodePending(nil, func(dst []Pending) []Pending { return append(dst, keys...) }, tag)
	if !bytes.Equal(got, want) {
		t.Fatalf("keyed encoding\n%x\nwant\n%x", got, want)
	}
	k.RunUntil(5)
	if got := sprint(order); got != "[timer@5ns bg@5ns]" {
		t.Fatalf("order = %v, want [timer@5ns bg@5ns]", got)
	}
}

// TestResetKeepsKeyedEvents: Reset unqueues a keyed event without pooling
// it, so its owner re-arms it in place on the reset engine — no allocation,
// no pool entry shared with another schedule.
func TestResetKeepsKeyedEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	var ev Event
	ev.InitKeyed("timer", func(Time, any) { fired++ }, nil)
	e.RescheduleKeyed(&ev, 7, e.NextSeq())
	e.ScheduleFunc(8, "x", func(Time) {})
	e.Reset()
	if queued(&ev) || e.FreeEvents() != 1 {
		t.Fatalf("after Reset: keyed pending=%v, free list %d, want false and 1 (only the plain event)", queued(&ev), e.FreeEvents())
	}
	allocs := testing.AllocsPerRun(10, func() {
		e.RescheduleKeyed(&ev, e.Now()+3, e.NextSeq())
		e.Run()
	})
	if allocs != 0 || fired != 11 {
		t.Fatalf("re-arm allocated %v times, fired %d; want 0 and 11", allocs, fired)
	}
}

// TestRescheduleKeyedBelowHeapKey: RescheduleKeyed orders by the full (time,
// sequence) key, so moving a queued event to the same instant under an older
// reserved sequence number moves it below its previous key, and it fires
// before a same-instant event it used to follow.
func TestRescheduleKeyedBelowHeapKey(t *testing.T) {
	e := NewEngine()
	var order []string
	var at []Time
	var ev Event
	ev.InitKeyed("keyed", func(now Time, _ any) { order, at = append(order, "keyed"), append(at, now) }, nil)
	old := e.NextSeq()
	e.ScheduleFunc(5, "mid", func(now Time) { order, at = append(order, "mid"), append(at, now) })
	e.RescheduleKeyed(&ev, 5, e.NextSeq())
	e.RescheduleKeyed(&ev, 5, old)
	e.Run()
	if len(order) != 2 || order[0] != "keyed" || order[1] != "mid" {
		t.Fatalf("order = %v, want [keyed mid]", order)
	}
	if at[0] != 5 || at[1] != 5 {
		t.Fatalf("fired at %v, want [5 5]", at)
	}
}
