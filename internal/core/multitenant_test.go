package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sgprs/internal/core"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/multitenant.txt from the current code")

// TestMultiTenantGolden runs the paper's motivating scenario — co-located
// DNN services of different sizes and rates sharing one GPU — and pins its
// report byte for byte against testdata/multitenant.txt. Three tenant
// classes (a 30 fps ResNet18 vision pipeline, a 10 fps VGG11 analytics pass
// and a 60 fps TinyCNN gesture detector) run under SGPRS on a three-context
// pool, wired from device, profiler, scheduler, generator and one streaming
// collector per tenant. It is the only end-to-end run that mixes networks:
// the sim front end builds identical ResNet18 task sets. For an intended
// change, rewrite the file with -update.
func TestMultiTenantGolden(t *testing.T) {
	model := speedup.DefaultModel()
	cm := dnn.DefaultCostModel()
	vgg := dnn.VGG11(cm)
	// VGG11's raw cost model is relative; pin it to a plausible absolute
	// latency the same way the ResNet18 reference is calibrated.
	dnn.Calibrate(vgg, model, speedup.DeviceSMs, 6.5)
	tiny := dnn.TinyCNN(cm)
	dnn.Calibrate(tiny, model, speedup.DeviceSMs, 0.12)

	specs := []workload.TaskSpec{
		{Name: "vision-resnet18", Graph: sim.ReferenceGraph(model), Stages: 6, FPS: 30},
		{Name: "vision-resnet18-b", Graph: sim.ReferenceGraph(model), Stages: 6, FPS: 30},
		{Name: "analytics-vgg11", Graph: vgg, Stages: 6, FPS: 10},
		{Name: "gesture-tinycnn", Graph: tiny, Stages: 2, FPS: 60},
		{Name: "gesture-tinycnn-b", Graph: tiny, Stages: 2, FPS: 60},
	}
	pool := sim.ContextPool(3, 1.5, speedup.DeviceSMs)
	horizon := des.FromSeconds(6)

	// A job carries the slots of one collector only, so the per-tenant
	// table and the total come from two identical runs.
	tenants := make(byTenant, len(specs))
	for i := range tenants {
		tenants[i] = metrics.NewCollector(des.Second, horizon)
	}
	tasks, _, _ := simulateTenants(t, model, specs, pool, horizon, tenants)
	total := metrics.NewCollector(des.Second, horizon)
	_, dev, sched := simulateTenants(t, model, specs, pool, horizon, total)

	var out bytes.Buffer
	fmt.Fprintf(&out, "multi-tenant inference under SGPRS: %v SMs, 6 s simulated\n\n", pool)
	fmt.Fprintf(&out, "%-20s %6s %8s %8s %10s\n", "tenant", "rate", "fps", "dmr", "p99(ms)")
	for _, task := range tasks {
		sum := tenants[task.ID].Summary()
		fmt.Fprintf(&out, "%-20s %6.0f %8.1f %8.4f %10.2f\n",
			task.Name, 1/task.Period.Seconds(), sum.TotalFPS, sum.DMR, sum.RespP99MS)
	}
	fmt.Fprintf(&out, "\ntotal: %s\n", total.Summary())
	fmt.Fprintf(&out, "device utilisation %.1f%%, medium promotions %d\n",
		dev.Utilization()*100, core.Promotions(sched))

	path := filepath.Join("testdata", "multitenant.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from %s:\n got:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

// simulateTenants runs the tenant mix under SGPRS on a fresh engine and
// device until the horizon, streaming every job's lifecycle to sink.
func simulateTenants(t *testing.T, model *speedup.Model, specs []workload.TaskSpec, pool []int, horizon des.Time, sink workload.JobSink) ([]*rt.Task, *gpu.Device, *core.Scheduler) {
	t.Helper()
	eng := des.NewEngine()
	dev, err := gpu.NewDevice(eng, model, gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.Build(specs)
	if err != nil {
		t.Fatal(err)
	}

	// Offline phase: profile WCETs on the smallest pool context.
	prof := profile.New(model, dev.Config())
	for _, task := range tasks {
		if err := prof.ProfileTask(task, pool[0]); err != nil {
			t.Fatal(err)
		}
	}

	sched, err := core.New(core.Config{Name: "sgprs-multitenant", ContextSMs: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Attach(eng, dev, tasks); err != nil {
		t.Fatal(err)
	}

	var gen workload.Generator
	gen.Reset(eng, sched, 1)
	gen.SetSink(sink)
	gen.Start(tasks, horizon)
	eng.RunUntil(horizon)
	return tasks, dev, sched
}

// byTenant streams each job to its own task's collector; workload.Build
// numbers tasks by their position in the spec list.
type byTenant []*metrics.Collector

func (b byTenant) JobReleased(j *rt.Job, now des.Time)  { b[j.Task.ID].JobReleased(j, now) }
func (b byTenant) JobDone(j *rt.Job, now des.Time)      { b[j.Task.ID].JobDone(j, now) }
func (b byTenant) JobDiscarded(j *rt.Job, now des.Time) { b[j.Task.ID].JobDiscarded(j, now) }
