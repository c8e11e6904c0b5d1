package main

import (
	"fmt"
	"io"
	"math"

	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/report"
	"sgprs/internal/speedup"
)

// speedupCmd regenerates the paper's Figure 1: speedup gain as a function of
// the SM count for each operation class running in isolation, plus the
// composed whole-ResNet18 curve. Gains are measured by running kernels on
// the simulated device (via the offline profiler); -model samples the
// analytic model instead.
//
//	sgprs speedup [-sms 1,2,4,...] [-csv] [-model]
func speedupCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("speedup", stderr)
	smsFlag := fs.String("sms", "1,2,4,8,16,24,34,48,68", "comma-separated SM counts to sample")
	csvOut := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	analytic := fs.Bool("model", false, "sample the analytic model instead of measuring on the simulated device")
	workMS := fs.Float64("work", 50, "single-SM milliseconds of work per measured kernel")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	smCounts, err := config.ParseInts(*smsFlag, "SM count", 1, speedup.DeviceSMs)
	if err != nil {
		return fmt.Errorf("%w (device has %d SMs)", err, speedup.DeviceSMs)
	}
	if err := checkWork(*workMS); err != nil {
		return err
	}

	model := speedup.DefaultModel()
	var fig *report.Figure1
	if *analytic {
		fig = report.Figure1Model(model, smCounts)
		g := dnn.ResNet18(dnn.DefaultCostModel())
		row := make([]float64, len(smCounts))
		for i, n := range smCounts {
			row[i] = g.Gain(model, float64(n))
		}
		fig.AddRow("resnet18", row)
	} else if fig, err = measure(model, smCounts, *workMS); err != nil {
		return err
	}
	if *csvOut {
		return fig.WriteCSV(stdout)
	}
	return fig.WriteText(stdout)
}

// checkWork rejects a -work the measurement cannot run: a kernel needs
// positive, finite work, and on one SM it runs for about -work
// milliseconds, which must fit the simulated clock.
func checkWork(workMS float64) error {
	if !(workMS > 0) || math.IsInf(workMS, 0) {
		return fmt.Errorf("-work %v must be positive and finite", workMS)
	}
	if des.FromMillis(workMS) == des.Never {
		return fmt.Errorf("-work %vms exceeds the simulated clock's range", workMS)
	}
	return nil
}

func measure(model *speedup.Model, smCounts []int, workMS float64) (*report.Figure1, error) {
	prof := profile.New(model, gpu.DefaultConfig())
	fig := &report.Figure1{SMCounts: smCounts}
	for _, cl := range speedup.Classes() {
		row := make([]float64, len(smCounts))
		for i, n := range smCounts {
			g, err := prof.OperationGain(cl, workMS, n)
			if err != nil {
				return nil, err
			}
			row[i] = g
		}
		fig.AddRow(cl.String(), row)
	}
	g := dnn.ResNet18(dnn.DefaultCostModel())
	row := make([]float64, len(smCounts))
	for i, n := range smCounts {
		gain, err := prof.NetworkGain(g, n)
		if err != nil {
			return nil, err
		}
		row[i] = gain
	}
	fig.AddRow("resnet18", row)
	return fig, nil
}
