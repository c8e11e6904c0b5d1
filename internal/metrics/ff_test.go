package metrics

import (
	"cmp"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// cyclePlan is a run the fast-forward replay must stand in for: a prefix of
// one-off jobs, then one cycle of releases and fates repeated every period.
// A job whose end offset reaches the period is pipelined: it closes in the
// next cycle, the way a recorded cycle's in-flight jobs do.
type cyclePlan struct {
	period  des.Time
	prefix  []jobPlan // one-off jobs in [0, period), closing inside it
	cycle   []jobPlan // one cycle's jobs, in release order
	slo     float64
	reverse bool // deliver each cycle's ends after its releases, latest first
}

// jobPlan is one job: release and end offsets from its cycle's start, and
// whether it ends discarded rather than completed.
type jobPlan struct {
	release, end des.Time
	discard      bool
}

// inFlight is a job released in one cycle that ends in the next.
type inFlight struct {
	j    *rt.Job
	plan jobPlan
}

// decodePlan reads a plan and a replay count k from fuzz bytes, padding with
// zeros: P = 1..5 jobs per cycle of 40 ms, k = 1..3000, the SLO on or off,
// ends in or out of time order, and up to three prefix jobs.
func decodePlan(data []byte) (p cyclePlan, k int) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	const periodMS = 40
	p.period = periodMS * des.Millisecond
	n := 1 + int(at(0))%5
	k = 1 + int(binary.LittleEndian.Uint16([]byte{at(1), at(2)}))%3000
	if at(3)&1 != 0 {
		p.slo = 20
	}
	p.reverse = at(3)&2 != 0
	off := 5
	for range int(at(4)) % 4 {
		r := int(at(off)) % periodMS
		p.prefix = append(p.prefix, jobPlan{
			release: des.Time(r) * des.Millisecond,
			end:     des.Time(r+int(at(off+1))%(periodMS-r)) * des.Millisecond,
			discard: at(off+1)&0x80 != 0,
		})
		off += 2
	}
	for range n {
		r := int(at(off)) % periodMS
		e := int(at(off + 2))
		jp := jobPlan{release: des.Time(r) * des.Millisecond, discard: at(off+1)&2 != 0}
		if at(off+1)&1 == 0 {
			jp.end = des.Time(r+e%(periodMS-r)) * des.Millisecond // same cycle
		} else {
			jp.end = des.Time(periodMS+e%(r+1)) * des.Millisecond // next cycle
		}
		p.cycle = append(p.cycle, jp)
		off += 3
	}
	byRelease := func(a, b jobPlan) int { return cmp.Compare(a.release, b.release) }
	slices.SortStableFunc(p.prefix, byRelease)
	slices.SortStableFunc(p.cycle, byRelease)
	return p, k
}

// run drives one collector through the plan: the prefix, cycles 0..last,
// and a closing cycle whose pipelined jobs stay pending at the horizon.
// With replay set, cycle 1 is recorded and Replay(last-1) stands in for
// cycles 2..last, the way the fast-forward layer does it; otherwise every
// cycle is fed explicitly.
func (p *cyclePlan) run(t testing.TB, last int, replay bool) *Collector {
	task := mkTask(t, 0, p.period)
	horizon := des.Time(int64(p.period) * int64(last+5))
	c := NewCollector(0, horizon)
	c.SetSLO(p.slo)
	var prefix []*rt.Job
	for _, jp := range p.prefix {
		j := task.NewJob(0, jp.release)
		c.JobReleased(j, j.Release)
		prefix = append(prefix, j)
	}
	for i, jp := range p.prefix {
		finishJob(c, prefix[i], jp.end, jp.discard)
	}
	var flight []inFlight
	for q := 0; q <= last+1; q++ {
		if replay && q == 2 {
			c.EndRecording()
			k := last - 1
			c.Replay(k, p.period)
			shift := des.Time(int64(p.period) * int64(k))
			for _, f := range flight {
				f.j.Release += shift
				f.j.Deadline += shift
				c.ShiftSlots(f.j, k)
			}
			q = last + 1
		}
		if replay && q == 1 {
			c.BeginRecording()
		}
		flight = p.feedCycle(c, task, q, flight)
	}
	return c
}

// feedCycle delivers cycle q's events in time order: its releases, its jobs'
// ends inside it, and the ends of prev, the previous cycle's pipelined jobs.
// It returns the jobs it leaves in flight.
func (p *cyclePlan) feedCycle(c *Collector, task *rt.Task, q int, prev []inFlight) []inFlight {
	type event struct {
		at      des.Time
		release bool
		f       inFlight
	}
	w := des.Time(int64(p.period) * int64(q+1))
	var evs []event
	var next []inFlight
	for _, jp := range p.cycle {
		f := inFlight{task.NewJob(q, w+jp.release), jp}
		evs = append(evs, event{w + jp.release, true, f})
		if jp.end < p.period {
			evs = append(evs, event{w + jp.end, false, f})
		} else {
			next = append(next, f)
		}
	}
	for _, f := range prev {
		evs = append(evs, event{w - p.period + f.plan.end, false, f})
	}
	slices.SortStableFunc(evs, func(a, b event) int {
		switch {
		case a.release != b.release && (p.reverse || a.at == b.at):
			if a.release {
				return -1
			}
			return 1
		case p.reverse && !a.release:
			return cmp.Compare(b.at, a.at)
		}
		return cmp.Compare(a.at, b.at)
	})
	for _, ev := range evs {
		if ev.release {
			c.JobReleased(ev.f.j, ev.at)
		} else {
			finishJob(c, ev.f.j, ev.at, ev.f.plan.discard)
		}
	}
	return next
}

// finishJob completes or discards j at the given instant.
func finishJob(c *Collector, j *rt.Job, at des.Time, discard bool) {
	if discard {
		j.Discard(at)
		c.JobDiscarded(j, at)
		return
	}
	j.Stages[len(j.Stages)-1].MarkFinished(at)
	c.JobDone(j, at)
}

// sameBits reports whether two snapshots are equal bit for bit (NaN slots
// included, which DeepEqual would call unequal).
func sameBits(a, b CollectorSnapshot) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Released == b.Released && a.Completed == b.Completed &&
		a.CompletedReleased == b.CompletedReleased && a.LateCompleted == b.LateCompleted &&
		a.Dropped == b.Dropped && slices.EqualFunc(a.Resp, b.Resp, bits) &&
		slices.Equal(a.Starts, b.Starts) && slices.Equal(a.Ends, b.Ends) &&
		slices.Equal(a.EndLog, b.EndLog)
}

// checkReplay runs the plan explicitly and replayed and requires identical
// summaries and bitwise-identical expanded state.
func checkReplay(t *testing.T, p cyclePlan, k int) {
	t.Helper()
	want := p.run(t, k+1, false)
	got := p.run(t, k+1, true)
	if ws, gs := want.Summary(), got.Summary(); !reflect.DeepEqual(ws, gs) {
		t.Fatalf("k=%d: replayed summary differs\nwant %+v\ngot  %+v", k, ws, gs)
	}
	if !sameBits(want.DebugSnapshot(), got.DebugSnapshot()) {
		t.Fatalf("k=%d: replayed collector state differs from explicit cycles", k)
	}
	if w, g := want.SortFallbacks(), got.SortFallbacks(); (w == 0) != (g == 0) {
		t.Fatalf("k=%d: sort fallbacks %d explicit, %d replayed", k, w, g)
	}
}

// FuzzCollectorReplay pins Collector.Replay against the cycles it stands
// for: a collector that records one decoded cycle and replays it k times
// must summarise, and expand in DebugSnapshot, exactly like one fed all k
// cycles. Cycles mix completions and discards closing in their own cycle or
// pipelined into the next; discards leave NaN response slots.
func FuzzCollectorReplay(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 3, 1, 5, 20, 0, 9})                                            // k=1
	f.Add([]byte{2, 1, 0, 3, 1, 10, 4, 5, 1, 30, 7, 17, 1, 4})                                 // k=2, pipelined, reversed ends
	f.Add([]byte{2, 0xb7, 0x0b, 0, 0, 1, 2, 9, 7, 3, 4, 22, 2, 2})                             // k=3000, all-NaN block
	f.Add([]byte{0, 99, 0, 1, 1, 5, 9, 3, 2, 0})                                               // n == 1: one prefix response
	f.Add([]byte{4, 0xe7, 0x03, 1, 2, 1, 12, 2, 0x80, 0, 1, 3, 30, 0, 9, 39, 1, 0, 20, 3, 39}) // k=1000
	f.Fuzz(func(t *testing.T, data []byte) {
		p, k := decodePlan(data)
		checkReplay(t, p, k)
	})
}

// TestCollectorReplayLongSpan replays a pipelined cycle with a discard over
// thousands of cycles, where the depth sweep finds the copies repeating and
// skips them, and the mean crosses binades.
func TestCollectorReplayLongSpan(t *testing.T) {
	ms := des.Millisecond
	p := cyclePlan{period: 40 * ms, slo: 20, cycle: []jobPlan{
		{release: 0, end: 50 * ms},
		{release: 5 * ms, end: 30 * ms},
		{release: 10 * ms, end: 35 * ms, discard: true},
		{release: 20 * ms, end: 58 * ms},
	}}
	for _, k := range []int{1, 2, 3, 4, 5, 8500} {
		checkReplay(t, p, k)
	}
}

// TestCollectorSummaryReplayedAllocs: a warm Summary over a replayed span
// reuses its buffers and allocates nothing.
func TestCollectorSummaryReplayedAllocs(t *testing.T) {
	ms := des.Millisecond
	p := cyclePlan{period: 40 * ms, slo: 20, cycle: []jobPlan{
		{release: 0, end: 50 * ms},
		{release: 10 * ms, end: 35 * ms},
	}}
	c := p.run(t, 8500, true)
	c.Summary()
	if n := testing.AllocsPerRun(20, func() { c.Summary() }); n != 0 {
		t.Errorf("warm Summary over a replayed span allocates %v times", n)
	}
}
