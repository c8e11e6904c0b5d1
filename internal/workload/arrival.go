package workload

import (
	"fmt"
	"math"
	"math/bits"

	"sgprs/internal/des"
)

// ArrivalTask is the per-task view an Arrival receives when the generator
// starts it: the task's position in the set plus the timing parameters the
// closed-loop periodic model would use. Open-loop processes are free to
// ignore Period (it still defines the job deadline) — it is the natural
// rate anchor for processes whose Rate field is zero.
type ArrivalTask struct {
	// Index and Count locate the task inside the generated set; trace
	// replay uses them to demultiplex recorded rows onto tasks.
	Index, Count int
	// Period, Offset, and Jitter are the task's closed-loop release
	// parameters (Jitter is consumed only by Periodic — open-loop
	// processes have their own randomness).
	Period, Offset, Jitter des.Time
	// Horizon is the run's end. The generator uses no release at or past
	// it, so a process may return des.Never for any instant it would
	// place there; MMPP does, which bounds its walk over state changes.
	Horizon des.Time
}

// arrivalProcess emits one task's release instants, in non-decreasing
// order. Next returns ok=false when the process is exhausted (only finite
// processes such as trace replay ever are); an instant beyond the clock
// is des.Never. The generator stops at the first instant at or past the
// horizon.
type arrivalProcess interface {
	Next() (at des.Time, ok bool)
}

// Arrival is a release-time model, one of Periodic, Poisson, Bursty, MMPP,
// Diurnal and Trace (or a Scale of one): the generator starts one process
// per task, handing it the task's parameters and a deterministic RNG forked
// from the generator's seed by task ID (the house fork pattern, so
// processes never perturb each other and parallel sweeps stay bit-identical
// to sequential ones).
//
// Implementations are immutable values: Scale returns a derived process
// with the arrival intensity multiplied by factor (the exp.Rate axis), and
// start may be called many times concurrently from different runs.
type Arrival interface {
	// Name is a short stable identifier ("poisson", "trace:azure") used
	// in expanded experiment labels and -list output.
	Name() string
	// Validate rejects malformed parameters; sim.RunConfig.Normalize and
	// exp.Compile call it so bad processes fail with the run named.
	Validate() error
	// Scale returns a copy with the arrival intensity multiplied by
	// factor (>1 = more load). Used by the exp arrival-rate axis.
	Scale(factor float64) Arrival
	// start writes the process for one task into slot and returns it.
	start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess
}

// procSlot holds one release chain's arrival process in place: the
// generator keeps a slot in every chain, so starting a run allocates no
// process.
type procSlot struct {
	periodic periodicProcess
	poisson  poissonProcess
	bursty   burstyProcess
	mmpp     mmppProcess
	diurnal  diurnalProcess
	trace    traceProcess
}

// finite rejects NaN and ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// clockNS rounds float nanoseconds to the nearest instant. Beyond the
// clock, and for NaN, it returns des.Never: a bare conversion of such a
// value is platform-defined (it wraps to the int64 minimum on amd64).
func clockNS(ns float64) des.Time {
	ns += 0.5
	if !(ns < float64(des.Never)) {
		return des.Never
	}
	return des.Time(ns)
}

// natRate converts a task period into its closed-loop arrival rate
// (arrivals per second) — the anchor processes use when Rate is zero.
func natRate(period des.Time) float64 { return 1 / period.Seconds() }

// Periodic is the paper's closed-loop model and the generator's default
// (Arrival == nil means Periodic{}): releases every period, plus the task's
// uniform release jitter. Rate, when set,
// multiplies the release rate: jobs arrive every Period/Rate while
// deadlines stay derived from Period, making Rate > 1 open-loop periodic
// overload.
type Periodic struct {
	// Rate multiplies the task's natural release rate; 0 and 1 both mean
	// the task's own period.
	Rate float64
}

// Name implements Arrival.
func (p Periodic) Name() string {
	if p.Rate != 0 && p.Rate != 1 {
		return fmt.Sprintf("periodic-%gx", p.Rate)
	}
	return "periodic"
}

// Validate implements Arrival.
func (p Periodic) Validate() error {
	if p.Rate < 0 || !finite(p.Rate) {
		return fmt.Errorf("workload: periodic rate %v must be non-negative and finite", p.Rate)
	}
	return nil
}

// Scale implements Arrival.
func (p Periodic) Scale(factor float64) Arrival {
	r := p.Rate
	if r == 0 {
		r = 1
	}
	return Periodic{Rate: r * factor}
}

func (p Periodic) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	period := t.Period
	if p.Rate != 0 && p.Rate != 1 {
		period = max(clockNS(float64(t.Period)/p.Rate), 1)
	}
	slot.periodic = periodicProcess{period: period, offset: t.Offset, jitter: t.Jitter, rng: rng}
	return &slot.periodic
}

// periodicProcess emits the k-th instant at Offset + Period·k plus a jitter
// draw, des.Never once Period·k is beyond the clock. The draw happens on
// every Next — including the final beyond-horizon one — and interleaves on
// the task's RNG stream with the generator's work-variation draws; the
// golden digests pin that order. A rate-scaled period can be shorter than
// the jitter, so an instant is clamped to the one before it.
type periodicProcess struct {
	period, offset, jitter des.Time
	rng                    *des.RNG
	idx                    int
	last                   des.Time
}

func (p *periodicProcess) Next() (des.Time, bool) {
	at := des.Never
	if hi, lo := bits.Mul64(uint64(p.period), uint64(p.idx)); hi == 0 && lo < uint64(des.Never) {
		at = p.offset.Add(des.Time(lo))
	}
	if p.jitter > 0 {
		at = at.Add(des.Time(p.rng.Float64() * float64(p.jitter)))
	}
	at = max(at, p.last)
	p.last = at
	p.idx++
	return at, true
}

// Poisson is a memoryless open-loop stream: exponential inter-arrivals at
// Rate arrivals per second per task, starting from the task's offset.
type Poisson struct {
	// Rate is arrivals per second per task; 0 means the task's natural
	// closed-loop rate (1/Period) — useful as a Scale anchor.
	Rate float64
}

// Name implements Arrival.
func (p Poisson) Name() string {
	if p.Rate > 0 {
		return fmt.Sprintf("poisson-%g", p.Rate)
	}
	return "poisson"
}

// Validate implements Arrival.
func (p Poisson) Validate() error {
	if p.Rate < 0 || !finite(p.Rate) {
		return fmt.Errorf("workload: poisson rate %v must be non-negative and finite", p.Rate)
	}
	return nil
}

// Scale implements Arrival. A zero Rate scales the natural rate, which is
// only known per task — so that case carries the factor for start to
// resolve. Factor 1 (the baseline cell of a rate sweep) is the identity.
func (p Poisson) Scale(factor float64) Arrival {
	if factor == 1 {
		return p
	}
	if p.Rate > 0 {
		return Poisson{Rate: p.Rate * factor}
	}
	return scaled{base: p, factor: factor}
}

func (p Poisson) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	return p.startScaled(slot, t, rng, 1)
}

// startScaled starts the process at Rate, or the task's natural rate,
// times factor.
func (p Poisson) startScaled(slot *procSlot, t ArrivalTask, rng *des.RNG, factor float64) arrivalProcess {
	rate := p.Rate
	if rate == 0 {
		rate = natRate(t.Period)
	}
	slot.poisson = poissonProcess{cur: t.Offset, meanNS: float64(des.Second) / (rate * factor), rng: rng}
	return &slot.poisson
}

type poissonProcess struct {
	cur    des.Time
	meanNS float64
	rng    *des.RNG
}

func (p *poissonProcess) Next() (des.Time, bool) {
	p.cur = p.cur.Add(clockNS(p.rng.Exp(p.meanNS)))
	return p.cur, true
}

// Bursty is a deterministic on/off source: fixed-length ON windows (Poisson
// arrivals at Rate) alternating with silent OFF windows, phase-locked to
// the task offset. It models camera groups or clients that synchronise into
// bursts — the adversarial regime for admission control.
type Bursty struct {
	// OnSec and OffSec are the window lengths in seconds.
	OnSec, OffSec float64
	// Rate is the ON-window arrival rate per task, arrivals per second;
	// 0 means the task's natural rate (so the average rate is below
	// closed-loop by the duty cycle).
	Rate float64
}

// Name implements Arrival.
func (b Bursty) Name() string { return fmt.Sprintf("bursty-%g/%g", b.OnSec, b.OffSec) }

// Validate implements Arrival.
func (b Bursty) Validate() error {
	if !(b.OnSec > 0) || !finite(b.OnSec) {
		return fmt.Errorf("workload: bursty on-window %vs must be positive and finite", b.OnSec)
	}
	if b.OffSec < 0 || !finite(b.OffSec) {
		return fmt.Errorf("workload: bursty off-window %vs must be non-negative and finite", b.OffSec)
	}
	if b.Rate < 0 || !finite(b.Rate) {
		return fmt.Errorf("workload: bursty rate %v must be non-negative and finite", b.Rate)
	}
	return nil
}

// Scale implements Arrival.
func (b Bursty) Scale(factor float64) Arrival {
	if factor == 1 {
		return b
	}
	if b.Rate > 0 {
		c := b
		c.Rate *= factor
		return c
	}
	return scaled{base: b, factor: factor}
}

func (b Bursty) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	return b.startScaled(slot, t, rng, 1)
}

// startScaled starts the process with an ON-window rate of Rate, or the
// task's natural rate, times factor.
func (b Bursty) startScaled(slot *procSlot, t ArrivalTask, rng *des.RNG, factor float64) arrivalProcess {
	rate := b.Rate
	if rate == 0 {
		rate = natRate(t.Period)
	}
	slot.bursty = burstyProcess{
		offset: t.Offset,
		onNS:   b.OnSec * float64(des.Second),
		cycNS:  (b.OnSec + b.OffSec) * float64(des.Second),
		meanNS: float64(des.Second) / (rate * factor),
		rng:    rng,
	}
	return &slot.bursty
}

// burstyProcess draws a Poisson stream in "busy time" (cumulative ON time)
// and maps it onto wall time by inserting the OFF windows: busy instant b
// lands in cycle ⌊b/on⌋ at offset b mod on. The mapping is monotone, so
// the emitted instants are too.
type burstyProcess struct {
	offset      des.Time
	busyNS      float64
	onNS, cycNS float64
	meanNS      float64
	rng         *des.RNG
}

func (p *burstyProcess) Next() (des.Time, bool) {
	p.busyNS += p.rng.Exp(p.meanNS)
	cycles := math.Floor(p.busyNS / p.onNS)
	wall := float64(cycles*p.cycNS) + (p.busyNS - float64(cycles*p.onNS))
	return p.offset.Add(clockNS(wall)), true
}

// MMPP is a Markov-modulated Poisson process: the source cycles through
// states, each with its own arrival rate, staying in state i for an
// exponential sojourn with the given mean. A rate-0 state is a silent
// phase. The classic two-state (interrupted Poisson) overload model is
// MMPP{RatesPerSec: []float64{low, high}, MeanSojournSec: []float64{a, b}}.
type MMPP struct {
	// RatesPerSec are the per-state arrival rates (arrivals per second
	// per task); at least one must be positive.
	RatesPerSec []float64
	// MeanSojournSec are the matching mean state-holding times, seconds.
	MeanSojournSec []float64
}

// Name implements Arrival.
func (m MMPP) Name() string { return fmt.Sprintf("mmpp-%d", len(m.RatesPerSec)) }

// Validate implements Arrival.
func (m MMPP) Validate() error {
	if len(m.RatesPerSec) == 0 || len(m.RatesPerSec) != len(m.MeanSojournSec) {
		return fmt.Errorf("workload: mmpp needs matching non-empty rate/sojourn lists (got %d/%d)",
			len(m.RatesPerSec), len(m.MeanSojournSec))
	}
	anyPositive := false
	for i, r := range m.RatesPerSec {
		if r < 0 || !finite(r) {
			return fmt.Errorf("workload: mmpp state %d rate %v must be non-negative and finite", i, r)
		}
		if r > 0 {
			anyPositive = true
		}
		if s := m.MeanSojournSec[i]; !(s > 0) || !finite(s) {
			return fmt.Errorf("workload: mmpp state %d sojourn %vs must be positive and finite", i, s)
		}
	}
	if !anyPositive {
		return fmt.Errorf("workload: mmpp needs at least one state with a positive rate")
	}
	return nil
}

// Scale implements Arrival.
func (m MMPP) Scale(factor float64) Arrival {
	rates := make([]float64, len(m.RatesPerSec))
	for i, r := range m.RatesPerSec {
		rates[i] = r * factor
	}
	return MMPP{RatesPerSec: rates, MeanSojournSec: append([]float64(nil), m.MeanSojournSec...)}
}

func (m MMPP) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	p := &slot.mmpp
	*p = mmppProcess{m: m, cur: t.Offset, horizon: t.Horizon, rng: rng}
	p.phaseEnd = p.cur.Add(clockNS(rng.Exp(m.MeanSojournSec[0] * float64(des.Second))))
	return p
}

// mmppProcess exploits memorylessness: at a state boundary the pending
// exponential inter-arrival is simply redrawn at the new state's rate,
// which has the same distribution as the textbook competing-clocks
// construction and needs no thinning. Once a boundary is at or past the
// horizon, so is every later arrival: the walk stops there and returns
// des.Never without drawing again.
type mmppProcess struct {
	m        MMPP
	state    int
	cur      des.Time
	phaseEnd des.Time
	horizon  des.Time
	rng      *des.RNG
}

func (p *mmppProcess) Next() (des.Time, bool) {
	for p.cur < p.horizon {
		if rate := p.m.RatesPerSec[p.state]; rate > 0 {
			at := p.cur.Add(clockNS(p.rng.Exp(float64(des.Second) / rate)))
			if at < p.phaseEnd {
				p.cur = at
				return at, true
			}
		}
		// Silent state, or the draw crossed the boundary: jump to the
		// next state and redraw there.
		p.cur = p.phaseEnd
		p.state = (p.state + 1) % len(p.m.RatesPerSec)
		p.phaseEnd = p.cur.Add(clockNS(p.rng.Exp(p.m.MeanSojournSec[p.state] * float64(des.Second))))
	}
	return des.Never, true
}

// Diurnal is a smoothly varying open-loop source: a sinusoidal rate curve
// from MinRate (at the start of each cycle) up to MaxRate (mid-cycle) and
// back, sampled by Lewis–Shedler thinning against the peak rate. One cycle
// per PeriodSec compresses a day-scale load curve into simulated seconds.
type Diurnal struct {
	// PeriodSec is the cycle length in simulated seconds.
	PeriodSec float64
	// MinRate and MaxRate bound the rate curve, arrivals per second per
	// task. MaxRate 0 means twice the task's natural rate.
	MinRate, MaxRate float64
}

// Name implements Arrival.
func (d Diurnal) Name() string { return fmt.Sprintf("diurnal-%gs", d.PeriodSec) }

// Validate implements Arrival.
func (d Diurnal) Validate() error {
	if !(d.PeriodSec > 0) || !finite(d.PeriodSec) {
		return fmt.Errorf("workload: diurnal period %vs must be positive and finite", d.PeriodSec)
	}
	if d.MinRate < 0 || !finite(d.MinRate) {
		return fmt.Errorf("workload: diurnal min rate %v must be non-negative and finite", d.MinRate)
	}
	if d.MaxRate < 0 || !finite(d.MaxRate) {
		return fmt.Errorf("workload: diurnal max rate %v must be non-negative and finite", d.MaxRate)
	}
	if d.MaxRate > 0 && d.MaxRate < d.MinRate {
		return fmt.Errorf("workload: diurnal max rate %v below min rate %v", d.MaxRate, d.MinRate)
	}
	return nil
}

// Scale implements Arrival.
func (d Diurnal) Scale(factor float64) Arrival {
	if factor == 1 {
		return d
	}
	if d.MaxRate > 0 {
		c := d
		c.MinRate *= factor
		c.MaxRate *= factor
		return c
	}
	return scaled{base: d, factor: factor}
}

func (d Diurnal) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	return d.startScaled(slot, t, rng, 1)
}

// startScaled starts the process with both bounds of the rate curve times
// factor, MaxRate 0 reading twice the task's natural rate.
func (d Diurnal) startScaled(slot *procSlot, t ArrivalTask, rng *des.RNG, factor float64) arrivalProcess {
	maxRate := d.MaxRate
	if maxRate == 0 {
		maxRate = 2 * natRate(t.Period)
	}
	slot.diurnal = diurnalProcess{
		offset:   t.Offset,
		periodNS: d.PeriodSec * float64(des.Second),
		min:      d.MinRate * factor,
		max:      maxRate * factor,
		rng:      rng,
	}
	return &slot.diurnal
}

type diurnalProcess struct {
	offset   des.Time
	curNS    float64
	periodNS float64
	min, max float64
	rng      *des.RNG
}

func (p *diurnalProcess) Next() (des.Time, bool) {
	meanNS := float64(des.Second) / p.max
	for {
		p.curNS += p.rng.Exp(meanNS)
		if !(p.curNS < float64(des.Never)) {
			return des.Never, true
		}
		phase := 2 * math.Pi * (p.curNS / p.periodNS)
		rate := p.min + float64((p.max-p.min)*0.5*(1-math.Cos(phase)))
		if p.rng.Float64()*p.max < rate {
			return p.offset.Add(clockNS(p.curNS)), true
		}
	}
}

// Trace replays recorded release timestamps (see TraceData and LoadTrace):
// each task replays the rows assigned to it, in recorded order. Task
// offsets and jitter are ignored — the trace IS the timing.
type Trace struct {
	// Data is the parsed trace (shared, immutable).
	Data *TraceData
	// Speed compresses (>1) or stretches (<1) replay time; 0 means 1
	// (as recorded). The arrival-rate axis multiplies it.
	Speed float64
}

// Name implements Arrival.
func (t Trace) Name() string {
	name := "trace"
	if t.Data != nil && t.Data.Name != "" {
		name += ":" + t.Data.Name
	}
	if t.Speed != 0 && t.Speed != 1 {
		name += fmt.Sprintf("-%gx", t.Speed)
	}
	return name
}

// Validate implements Arrival.
func (t Trace) Validate() error {
	if t.Data == nil {
		return fmt.Errorf("workload: trace arrival has no data")
	}
	if t.Speed < 0 || !finite(t.Speed) {
		return fmt.Errorf("workload: trace speed %v must be non-negative and finite", t.Speed)
	}
	return t.Data.validate()
}

// Scale implements Arrival.
func (t Trace) Scale(factor float64) Arrival {
	s := t.Speed
	if s == 0 {
		s = 1
	}
	return Trace{Data: t.Data, Speed: s * factor}
}

func (t Trace) start(slot *procSlot, task ArrivalTask, _ *des.RNG) arrivalProcess {
	speed := t.Speed
	if speed == 0 {
		speed = 1
	}
	slot.trace = traceProcess{data: t.Data, speed: speed, task: task}
	return &slot.trace
}

type traceProcess struct {
	data  *TraceData
	speed float64
	task  ArrivalTask
	row   int
}

func (p *traceProcess) Next() (des.Time, bool) {
	for ; p.row < len(p.data.Times); p.row++ {
		owner := p.row
		if len(p.data.Tasks) > 0 {
			owner = p.data.Tasks[p.row]
		}
		if owner%p.task.Count != p.task.Index {
			continue
		}
		at := p.data.Times[p.row]
		if p.speed != 1 {
			at = clockNS(float64(at) / p.speed)
		}
		p.row++
		return at, true
	}
	return 0, false
}

// anchored is an arrival kind whose intensity anchors on the task's
// natural rate when its own rate is zero: Poisson, Bursty and Diurnal.
// startScaled resolves the anchor and multiplies the intensity by factor;
// the kind's own start calls it with factor 1, which is exact.
type anchored interface {
	Arrival
	startScaled(slot *procSlot, t ArrivalTask, rng *des.RNG, factor float64) arrivalProcess
}

// scaled wraps a natural-rate arrival whose intensity anchor (the task's
// natural rate) is only known when the process starts, deferring the
// multiplication until then. It keeps Scale closed under composition for
// every process type.
type scaled struct {
	base   anchored
	factor float64
}

// Name implements Arrival.
func (s scaled) Name() string { return fmt.Sprintf("%s-%gx", s.base.Name(), s.factor) }

// Validate implements Arrival.
func (s scaled) Validate() error {
	if !(s.factor > 0) || !finite(s.factor) {
		return fmt.Errorf("workload: arrival scale factor %v must be positive and finite", s.factor)
	}
	return s.base.Validate()
}

// Scale implements Arrival.
func (s scaled) Scale(factor float64) Arrival {
	return scaled{base: s.base, factor: s.factor * factor}
}

func (s scaled) start(slot *procSlot, t ArrivalTask, rng *des.RNG) arrivalProcess {
	return s.base.startScaled(slot, t, rng, s.factor)
}
