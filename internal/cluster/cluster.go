// Package cluster is the fleet layer (DESIGN.md §15): N gpu.Device instances
// behind one dispatcher on the single shared des.Engine loop. Each device
// hosts its own scheduler instance; the dispatcher owns chain placement —
// every task is homed on exactly one device — and routes releases to the
// home's scheduler. Pluggable placement policies decide the homes (bin-pack
// by offline utilization, SGPRS context-fit, load-stealing with a per-chain
// migration cost), and device-level failure domains make the fleet
// survivable: a crash aborts the device's resident kernels, drains its
// queues, and re-places the affected chains under an rt.FailoverPolicy,
// while an admission controller sheds the lowest-priority chains' releases
// when surviving capacity falls below a configurable ceiling.
//
// A single GPU is a fleet of one: every sim run goes through the
// dispatcher, which then hands each release to its one member unchanged.
//
// Determinism discipline: devices and chains are iterated in admission order
// (fleet position, task ID) everywhere; crash/restart edges are ordinary
// engine events; the policies draw no random numbers, so a fleet run is a
// pure function of its configuration.
package cluster

import (
	"fmt"
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
)

// Migration and steal costs.
const (
	// migrationBaseMS and migrationPerStageMS price a chain migration:
	// base + perStage·stages of blackout while weights and state re-stage.
	migrationBaseMS     = 5
	migrationPerStageMS = 1
	// retryBackoffMS delays the first release delivered to a restarted
	// origin device under FailoverRetry.
	retryBackoffMS = 10
	// stealMargin is the demand-ratio gap that triggers a load-steal
	// migration; stealCooldownMS is the per-chain minimum time between
	// steals.
	stealMargin     = 0.5
	stealCooldownMS = 100
)

// Placement selects how chains are homed onto fleet devices.
type Placement int

const (
	// PlaceBinPack homes each chain (in task order) on the device with the
	// smallest summed offline load — TotalWorkMS/period over the chains
	// already homed there — ties to the lowest fleet index.
	PlaceBinPack Placement = iota
	// PlaceContextFit homes each chain on the device whose scheduler
	// contexts are least crowded (chains per context), ties to the lowest
	// fleet index — the SGPRS-shaped heuristic: context slots, not raw
	// load, are the admission bottleneck.
	PlaceContextFit
	// PlaceLoadSteal starts round-robin and re-homes a chain at release
	// time when its home device's demand ratio exceeds the least-loaded
	// survivor's by more than the steal margin, paying the migration cost
	// and honouring a per-chain cooldown.
	PlaceLoadSteal
)

// String names the policy for reports and config round-trips.
func (p Placement) String() string {
	switch p {
	case PlaceBinPack:
		return "bin-pack"
	case PlaceContextFit:
		return "context-fit"
	case PlaceLoadSteal:
		return "load-steal"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// ParsePlacement resolves the config-file spelling of a placement policy;
// the empty string means PlaceBinPack.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "", "bin-pack", "binpack":
		return PlaceBinPack, nil
	case "context-fit":
		return PlaceContextFit, nil
	case "load-steal":
		return PlaceLoadSteal, nil
	default:
		return PlaceBinPack, fmt.Errorf("cluster: unknown placement policy %q (want bin-pack, context-fit, or load-steal)", s)
	}
}

// Config parameterises the dispatcher.
type Config struct {
	// Placement selects the chain-homing policy.
	Placement Placement
	// Failover selects what happens to chains homed on a crashed device;
	// FailoverDefault means FailoverMigrate.
	Failover rt.FailoverPolicy
	// AdmitCeiling, when positive, is the surviving-capacity fraction
	// below which the admission controller sheds releases: with upFrac =
	// surviving SMs / total SMs < AdmitCeiling, only the first
	// ⌊upFrac·N⌋ chains, at least one (task order — lowest IDs are
	// highest priority), keep releasing.
	AdmitCeiling float64
	// DeviceFaults lists the device-level crash/restart events to inject.
	DeviceFaults []fault.DeviceFault
}

// Member is one fleet device with its resident scheduler, already attached.
type Member struct {
	Dev *gpu.Device
	Sch sched.Member
}

// node is the dispatcher's bookkeeping for one fleet member.
type node struct {
	dev *gpu.Device
	sch sched.Member
	up  bool
}

// chain is the dispatcher's bookkeeping for one task.
type chain struct {
	home     int      // fleet index
	shed     bool     // permanently shed
	admitted bool     // passes the admission controller
	blackout des.Time // releases before this instant are delayed
	nextOK   des.Time // earliest next load-steal (cooldown)
}

// Fleet is the dispatcher. The workload generator hands it every release
// (OnRelease) exactly as it would a single-device scheduler; it is wired by
// New or Reset.
type Fleet struct {
	cfg     Config
	eng     *des.Engine
	nodes   []node
	tasks   []*rt.Task // admission order
	chains  []chain    // by task ID
	horizon des.Time

	col           *metrics.Collector
	downCount     int
	stats         metrics.FleetStats
	failoverSumMS float64
	failoverN     int

	fwdFn func(now des.Time, arg any)
	// edges holds one record per device fault for the crash and restart
	// events Install scheduled, which point into it.
	edges []deviceEdge
}

// deviceEdge is a device fault's crash and restart events' argument.
type deviceEdge struct {
	f     *Fleet
	fault fault.DeviceFault
}

// Reset rewires the dispatcher over the given members and homes every chain,
// keeping the node and chain slices' capacity so a reused fleet allocates
// nothing. Members' schedulers must already be attached to their devices
// (placement inspects their contexts). After an error the fleet is unusable
// until a Reset succeeds.
func (f *Fleet) Reset(eng *des.Engine, cfg Config, members []Member, tasks []*rt.Task, horizon des.Time) error {
	if len(members) == 0 {
		return fmt.Errorf("cluster: fleet needs at least one device")
	}
	if len(tasks) == 0 {
		return fmt.Errorf("cluster: fleet needs at least one task")
	}
	if cfg.AdmitCeiling < 0 || cfg.AdmitCeiling > 1 {
		return fmt.Errorf("cluster: admission ceiling %v outside [0, 1]", cfg.AdmitCeiling)
	}
	for i, df := range cfg.DeviceFaults {
		if df.Device >= len(members) {
			return fmt.Errorf("cluster: device fault %d targets device %d, fleet has %d", i, df.Device, len(members))
		}
	}
	clear(f.nodes)
	nodes := slices.Grow(f.nodes[:0], len(members))
	for _, m := range members {
		nodes = append(nodes, node{dev: m.Dev, sch: m.Sch, up: true})
	}
	n := 0
	for _, t := range tasks {
		if t.ID < 0 {
			return fmt.Errorf("cluster: task %s has negative ID", t)
		}
		n = max(n, t.ID+1)
	}
	chains := slices.Grow(f.chains[:0], n)
	for range n {
		chains = append(chains, chain{home: -1})
	}
	fwdFn := f.fwdFn
	if fwdFn == nil {
		fwdFn = func(now des.Time, arg any) { f.OnRelease(arg.(*rt.Job), now) }
	}
	*f = Fleet{cfg: cfg, eng: eng, nodes: nodes, tasks: tasks, chains: chains, horizon: horizon, fwdFn: fwdFn, edges: f.edges[:0]}
	for i, t := range tasks {
		c := &f.chains[t.ID]
		c.admitted = true
		c.home = f.place(i, t)
	}
	return nil
}

// Sole returns the scheduler of a fleet of one's only member, and nil for a
// larger fleet. Fast-forward fingerprints it in place of the dispatcher
// (DESIGN.md §12).
func (f *Fleet) Sole() sched.Member {
	if len(f.nodes) != 1 {
		return nil
	}
	return f.nodes[0].sch
}

// place homes task t (the i-th of the admission order) under the configured
// placement policy. Homes of earlier tasks are already set.
func (f *Fleet) place(i int, t *rt.Task) int {
	switch f.cfg.Placement {
	case PlaceLoadSteal:
		return i % len(f.nodes)
	case PlaceContextFit:
		best, bestFill := 0, 0.0
		for di, nd := range f.nodes {
			fill := float64(f.homedCount(di)) / float64(max(1, len(nd.dev.Contexts())))
			if di == 0 || fill < bestFill {
				best, bestFill = di, fill
			}
		}
		return best
	case PlaceBinPack:
		best, bestW := 0, 0.0
		for di := range f.nodes {
			w := f.nodeWeight(di)
			if di == 0 || w < bestW {
				best, bestW = di, w
			}
		}
		return best
	}
	panic(fmt.Sprintf("cluster: unknown placement %d", int(f.cfg.Placement)))
}

// taskWeight is a chain's offline load: profiled work per period.
func taskWeight(t *rt.Task) float64 {
	ms := t.Period.Milliseconds()
	if ms <= 0 {
		return 0
	}
	return t.Graph.TotalWorkMS() / ms
}

// nodeWeight sums the offline load of the live chains homed on device di, in
// task order — a fixed summation order, so the float result is a pure
// function of the homing state.
func (f *Fleet) nodeWeight(di int) float64 {
	var w float64
	for _, t := range f.tasks {
		if c := f.chains[t.ID]; c.home == di && !c.shed {
			w += taskWeight(t)
		}
	}
	return w
}

// homedCount counts the live chains homed on device di.
func (f *Fleet) homedCount(di int) int {
	n := 0
	for _, t := range f.tasks {
		if c := f.chains[t.ID]; c.home == di && !c.shed {
			n++
		}
	}
	return n
}

// Install schedules the configured device-fault edges and connects the
// collector (may be nil), whose fleet-degraded mark the dispatcher raises
// while at least one device is down. Call once, before the run starts.
func (f *Fleet) Install(col *metrics.Collector) {
	f.col = col
	// Filled before anything is scheduled: the events point into the
	// slice, which must not move under them.
	for _, df := range f.cfg.DeviceFaults {
		f.edges = append(f.edges, deviceEdge{f: f, fault: df})
	}
	for i := range f.edges {
		e := &f.edges[i]
		f.eng.AfterArg(des.FromSeconds(e.fault.StartSec)-f.eng.Now(), "cluster.crash", fireCrash, e)
		if e.fault.RestartSec > 0 {
			f.eng.AfterArg(des.FromSeconds(e.fault.RestartSec)-f.eng.Now(), "cluster.restart", fireRestart, e)
		}
	}
}

func fireCrash(now des.Time, arg any) {
	e := arg.(*deviceEdge)
	e.f.crash(e.fault.Device, e.fault.RestartSec, now)
}

func fireRestart(now des.Time, arg any) {
	e := arg.(*deviceEdge)
	e.f.restore(e.fault.Device, now)
}

// OnRelease implements workload.ReleaseHandler: it routes one released job
// through shedding, admission, stealing, and blackout to its home device's
// scheduler. Releases that cannot be served — shed or unadmitted chains,
// blackouts outlasting the horizon, homes that are down with no plan — are
// discarded immediately and counted as shed.
func (f *Fleet) OnRelease(job *rt.Job, now des.Time) {
	c := &f.chains[job.Task.ID]
	if c.shed || !c.admitted {
		f.shedRelease(job, now)
		return
	}
	if f.cfg.Placement == PlaceLoadSteal {
		f.maybeSteal(job.Task, now)
	}
	if bl := c.blackout; now < bl {
		if bl >= f.horizon {
			f.shedRelease(job, now)
			return
		}
		// Deliver when the blackout lifts; the delay is the visible cost
		// of migration or restart-wait, paid by the frames it straddles.
		f.eng.AfterArg(bl-now, "cluster.forward", f.fwdFn, job)
		return
	}
	nd := &f.nodes[c.home]
	if !nd.up {
		f.shedRelease(job, now)
		return
	}
	nd.sch.OnRelease(job, now)
}

// shedRelease discards one release the fleet will not serve.
func (f *Fleet) shedRelease(job *rt.Job, now des.Time) {
	f.stats.ShedReleases++
	job.Discard(now)
}

// maybeSteal re-homes a chain whose home device is overloaded relative to
// the least-loaded survivor (PlaceLoadSteal), paying the migration cost as a
// blackout and honouring the per-chain cooldown.
func (f *Fleet) maybeSteal(t *rt.Task, now des.Time) {
	c := &f.chains[t.ID]
	if now < c.nextOK {
		return
	}
	hi := c.home
	if !f.nodes[hi].up {
		return
	}
	best, bestR := -1, 0.0
	for di, nd := range f.nodes {
		if !nd.up || di == hi {
			continue
		}
		if r := nd.dev.DemandRatio(); best < 0 || r < bestR {
			best, bestR = di, r
		}
	}
	if best < 0 || f.nodes[hi].dev.DemandRatio() <= bestR+stealMargin {
		return
	}
	f.migrate(t, best, now)
	c.nextOK = now.Add(des.FromMillis(stealCooldownMS))
}

// migrate re-homes chain t onto device di, pricing the move as a blackout.
func (f *Fleet) migrate(t *rt.Task, di int, now des.Time) {
	costMS := migrationBaseMS + migrationPerStageMS*float64(len(t.Stages))
	c := &f.chains[t.ID]
	c.home = di
	c.blackout = now.Add(des.FromMillis(costMS))
	f.stats.Migrations++
	f.stats.MigrationCostMS += costMS
}

// crash takes device di down: its scheduler drains (kernels aborted, queues
// flushed, live frames discarded) and every chain homed there is re-placed
// under the failover policy. restartSec is the configured restart instant in
// seconds (0 = permanent loss), which FailoverRetry turns into a blackout.
func (f *Fleet) crash(di int, restartSec float64, now des.Time) {
	nd := &f.nodes[di]
	if !nd.up {
		return
	}
	nd.up = false
	f.downCount++
	f.stats.Crashes++
	if f.downCount == 1 && f.col != nil {
		f.col.SetFleetDegraded(true)
	}
	nd.sch.EvictAll(now)

	policy := f.cfg.Failover
	if policy == rt.FailoverDefault {
		policy = rt.FailoverMigrate
	}
	for _, t := range f.tasks {
		id := t.ID
		c := &f.chains[id]
		if c.home != di || c.shed {
			continue
		}
		switch policy {
		case rt.FailoverMigrate, rt.FailoverDefault: // Default resolved above
			tgt := f.pickSurvivor()
			if tgt < 0 {
				f.shedChain(id)
				continue
			}
			f.migrate(t, tgt, now)
			f.failoverSumMS += (c.blackout - now).Milliseconds()
			f.failoverN++
		case rt.FailoverRetry:
			if restartSec <= 0 {
				// Permanent loss: there is no origin to wait for.
				f.shedChain(id)
				continue
			}
			bl := des.FromSeconds(restartSec).Add(des.FromMillis(retryBackoffMS))
			c.blackout = bl
			f.failoverSumMS += (bl - now).Milliseconds()
			f.failoverN++
		case rt.FailoverShed:
			f.shedChain(id)
		}
	}
	f.recomputeAdmission()
}

// restore brings device di back up after a crash window.
func (f *Fleet) restore(di int, now des.Time) {
	nd := &f.nodes[di]
	if nd.up {
		return
	}
	nd.up = true
	f.downCount--
	f.stats.Restarts++
	if f.downCount == 0 && f.col != nil {
		f.col.SetFleetDegraded(false)
	}
	f.recomputeAdmission()
}

// pickSurvivor returns the least-loaded up device (lowest index ties), or -1
// when the whole fleet is down.
func (f *Fleet) pickSurvivor() int {
	best, bestW := -1, 0.0
	for di, nd := range f.nodes {
		if !nd.up {
			continue
		}
		if w := f.nodeWeight(di); best < 0 || w < bestW {
			best, bestW = di, w
		}
	}
	return best
}

// shedChain permanently drops a chain: every subsequent release discards.
func (f *Fleet) shedChain(id int) {
	f.chains[id].shed = true
	f.stats.ShedChains++
}

// recomputeAdmission re-derives the admission cut from surviving capacity:
// below the ceiling, only the first ⌊upFrac·N⌋ chains, at least one, keep
// releasing.
func (f *Fleet) recomputeAdmission() {
	if f.cfg.AdmitCeiling <= 0 {
		return
	}
	upSMs, totalSMs := 0, 0
	for _, nd := range f.nodes {
		sms := nd.dev.Config().TotalSMs
		totalSMs += sms
		if nd.up {
			upSMs += sms
		}
	}
	cut := len(f.tasks)
	if frac := float64(upSMs) / float64(totalSMs); frac < f.cfg.AdmitCeiling {
		cut = int(frac * float64(len(f.tasks)))
		if cut < 1 {
			cut = 1
		}
	}
	for i, t := range f.tasks {
		f.chains[t.ID].admitted = i < cut
	}
}

// AddStats adds the dispatcher's accounting so far to s, whose
// fleet-degraded fields are the collector's: the size, each device's
// utilization at the instant of the call, and the failure counters.
func (f *Fleet) AddStats(s *metrics.FleetStats) {
	s.Devices += len(f.nodes)
	s.PerDeviceUtilization = slices.Grow(s.PerDeviceUtilization, len(f.nodes))
	for _, nd := range f.nodes {
		s.PerDeviceUtilization = append(s.PerDeviceUtilization, nd.dev.Utilization())
	}
	s.Crashes += f.stats.Crashes
	s.Restarts += f.stats.Restarts
	s.Migrations += f.stats.Migrations
	s.MigrationCostMS += f.stats.MigrationCostMS
	s.ShedChains += f.stats.ShedChains
	s.ShedReleases += f.stats.ShedReleases
	if f.failoverN > 0 {
		s.FailoverLatencyMeanMS += f.failoverSumMS / float64(f.failoverN)
	}
}
