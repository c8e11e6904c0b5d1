package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	wl "sgprs/internal/workload"
)

// setup is one workload's prepared state: its compiled cells and an offline
// cache already holding everything the cells' runs look up.
type setup struct {
	w       workload
	seed    uint64
	jobs    []runner.Job
	horizon []float64 // each cell's simulated seconds, after defaulting
	simSec  float64   // simulated seconds per pass
	cache   *memo.Cache
	fill    memo.Stats // cache traffic of one fill

	// One sample per batch of set-ups: the batch's mean set-up time and
	// its compile and fill parts, adjusted for host speed.
	totalS, compileMS, fillMS []float64
}

func newSetup(w workload, seed uint64, spans *spanLog) (*setup, error) {
	s := &setup{w: w, seed: seed}
	if err := s.redo(spans); err != nil {
		return nil, err
	}
	s.fill = s.cache.Stats()
	for _, j := range s.jobs {
		cfg := j.Config
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
		s.horizon = append(s.horizon, cfg.HorizonSec)
		s.simSec += cfg.HorizonSec
	}
	return s, nil
}

// setupsPerPass is how many set-ups precede each pass. A set-up takes a
// millisecond or a few, too short to time alone on a shared host, so each
// sample is the mean of a batch.
const setupsPerPass = 5

// redo sets up from scratch setupsPerPass times, each a compile and a fill
// of a fresh cache, and records the batch's mean times, each set-up's
// adjusted by the reference chunk after it. Every pass runs on the set-up
// just before it, so set-up samples spread over the whole run like the
// passes do.
func (s *setup) redo(spans *spanLog) error {
	begin := time.Now()
	var compileS, fillS float64
	for i := 0; i < setupsPerPass; i++ {
		// Collect earlier garbage first, so no set-up pays for another's.
		runtime.GC()
		t0 := time.Now()
		jobs, err := s.w.compile(s.seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		cache := memo.New()
		if err := fill(cache, jobs); err != nil {
			return err
		}
		t2 := time.Now()
		spans.add("exp.compile", t0, t1, nil)
		spans.add("memo.fill", t1, t2, nil)
		slow := slowdown()
		compileS += t1.Sub(t0).Seconds() / slow
		fillS += t2.Sub(t1).Seconds() / slow
		s.jobs, s.cache = jobs, cache
	}
	spans.add("setup", begin, time.Now(), nil)
	s.totalS = append(s.totalS, (compileS+fillS)/setupsPerPass)
	s.compileMS = append(s.compileMS, compileS*1e3/setupsPerPass)
	s.fillMS = append(s.fillMS, fillS*1e3/setupsPerPass)
	return nil
}

// fill performs every offline computation the cells' runs would, in the
// order sim.Session.Run performs them: the reference graph, the task set,
// then the WCET profile of each task shape. A later run served entirely
// from the cache shows zero misses (memo.pass_misses).
func fill(cache *memo.Cache, jobs []runner.Job) error {
	model := sim.DefaultModel()
	key := memo.GraphKey{Model: model, Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: sim.ReferenceLatencyMS}
	for _, j := range jobs {
		cfg := j.Config
		if err := cfg.Normalize(); err != nil {
			return err
		}
		graph := cache.Graph(key, func() *dnn.Graph { return sim.ReferenceGraph(model) })
		tasks, err := wl.Build(wl.Replicate(wl.Options{
			Count: cfg.NumTasks,
			Spec: wl.TaskSpec{
				Name:          "resnet18",
				Graph:         graph,
				Stages:        cfg.Stages,
				FPS:           cfg.FPS,
				ReleaseJitter: des.FromMillis(cfg.ReleaseJitterMS),
				WorkVariation: cfg.WorkVariation,
			},
			Stagger: cfg.Stagger,
		}))
		if err != nil {
			return fmt.Errorf("bench: %s n=%d: %w", j.Variant, j.Tasks, err)
		}
		if err := cache.ProfileTasks(profile.New(model, cfg.GPU), tasks, slices.Min(cfg.ContextSMs)); err != nil {
			return fmt.Errorf("bench: %s n=%d: %w", j.Variant, j.Tasks, err)
		}
	}
	return nil
}

// pass is one sweep of every cell, back to back on one runner worker.
type pass struct {
	seconds  float64   // the sum of the cells' adjusted times
	cellMS   []float64 // by cell index, each adjusted for host speed
	slowdown float64   // the mean slowdown of the pass's reference chunks
	mallocs  uint64
	misses   uint64 // offline-cache lookups that missed during the pass
	results  []runner.JobResult
}

// runPass runs every cell once and times it, each cell adjusted by the
// reference chunk after it. Each pass starts from a collected heap, so none
// inherits another's collection debt.
func runPass(s *setup, spans *spanLog) pass {
	p := pass{cellMS: make([]float64, len(s.jobs))}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, stats := ms.Mallocs, s.cache.Stats()
	start := time.Now()
	last := start
	p.results = runner.Run(context.Background(), s.jobs, runner.Options{
		Jobs:  1,
		Cache: s.cache,
		Progress: func(_, _ int, r runner.JobResult) {
			now := time.Now()
			slow := slowdown()
			p.cellMS[r.Index] = float64(now.Sub(last).Nanoseconds()) / 1e6 / slow
			p.seconds += p.cellMS[r.Index] / 1e3
			p.slowdown += slow / float64(len(s.jobs))
			if spans != nil {
				spans.add("cell", last, now, map[string]any{
					"variant":           r.Job.Variant,
					"tasks":             r.Job.Tasks,
					"sim_s":             s.horizon[r.Index],
					"ff_cycles_skipped": r.Result.FastForward.CyclesSkipped,
				})
			}
			last = time.Now() // the next cell starts after the chunk
		},
	})
	end := time.Now()
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - before
	after := s.cache.Stats()
	p.misses = after.GraphMisses + after.ProfileMisses - stats.GraphMisses - stats.ProfileMisses
	spans.add("pass", start, end, nil)
	return p
}

// digest is the golden fingerprint of one cell: SHA-256 of the full result
// as %+v prints it, so every field and every float digit counts.
func digest(r sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])
}

// digests fingerprints every cell of a pass; an errored cell gets "".
func (p pass) digests() []string {
	ds := make([]string, len(p.results))
	for i, r := range p.results {
		if r.Err == nil {
			ds[i] = digest(r.Result)
		}
	}
	return ds
}

// passDigest folds a pass's cell digests into one.
func passDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
