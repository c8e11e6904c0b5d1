package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// profileCmd runs the offline phase in isolation and prints the per-stage WCET
// and virtual-deadline table for a network — the inputs the online
// scheduler works from (paper Section IV-A).
//
//	sgprs profile [-net resnet18] [-stages 6] [-sms 34] [-fps 30] [-margin 0.05]
func profileCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("profile", stderr)
	net := fs.String("net", "resnet18", "network: resnet18, vgg11, tinycnn, mlp")
	stages := fs.Int("stages", 6, "pipeline stage count")
	sms := fs.Int("sms", 34, "context SM allocation to profile on")
	fps := fs.Float64("fps", 30, "task frame rate (sets the deadline)")
	margin := fs.Float64("margin", 0.05, "WCET safety margin")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	period, err := profilePeriod(*fps, *margin)
	if err != nil {
		return err
	}
	model := speedup.DefaultModel()
	graph, err := buildNet(*net, model)
	if err != nil {
		return err
	}
	parts, err := dnn.Partition(graph, *stages)
	if err != nil {
		return err
	}
	task, err := rt.NewTask(0, *net, graph, parts, period, period, 0)
	if err != nil {
		return err
	}
	if err := profileTask(model, task, *sms, *margin); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "network %s: %d ops, %.1f single-SM ms, %.2f GMACs\n",
		graph.Name, len(graph.Ops), graph.TotalWorkMS(), float64(graph.TotalMACs())/1e9)
	fmt.Fprintf(stdout, "profiled on %d SMs (margin %.0f%%), period/deadline %v\n\n", *sms, *margin*100, period)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "stage\tops\twork(ssm·ms)\tWCET\tvirtual deadline\tlevel\t")
	for j, st := range parts {
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%v\t%v\t%v\t\n",
			j, st.Kernels(), st.WorkMS, task.StageWCET(j), task.VirtualDeadline(j), task.StageLevel(j))
	}
	fmt.Fprintf(tw, "total\t%d\t%.2f\t%v\t%v\t\t\n",
		len(graph.Ops), graph.TotalWorkMS(), task.WCET(), task.Deadline)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nutilisation C/T = %.3f\n", task.Utilization())
	return nil
}

// profilePeriod validates -fps and -margin and returns the release period
// -fps implies; the WCET margin must be non-negative and finite.
func profilePeriod(fps, margin float64) (des.Time, error) {
	period, err := fpsPeriod(fps)
	if err != nil {
		return 0, err
	}
	if !(margin >= 0) || math.IsInf(margin, 0) {
		return 0, fmt.Errorf("-margin %v must be non-negative and finite", margin)
	}
	return period, nil
}

// profileTask installs the task's WCETs measured on sms SMs and padded by
// margin, naming -margin when the padding overflows the simulated clock.
func profileTask(model *speedup.Model, task *rt.Task, sms int, margin float64) error {
	prof := profile.New(model, gpu.DefaultConfig())
	prof.Margin = margin
	err := prof.ProfileTask(task, sms)
	if errors.Is(err, profile.ErrWCETOverflow) {
		return fmt.Errorf("-margin %v pads the WCETs past the simulated clock", margin)
	}
	return err
}

func buildNet(name string, model *speedup.Model) (*dnn.Graph, error) {
	cm := dnn.DefaultCostModel()
	switch name {
	case "resnet18":
		return sim.ReferenceGraph(model), nil
	case "vgg11":
		return dnn.VGG11(cm), nil
	case "tinycnn":
		return dnn.TinyCNN(cm), nil
	case "mlp":
		return dnn.MLP(cm, 784, 512, 10), nil
	default:
		return nil, fmt.Errorf("unknown network %q", name)
	}
}
