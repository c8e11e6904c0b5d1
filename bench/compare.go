package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json that -compare and the tests
// read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// side summarizes one run set's samples of one metric.
type side struct {
	p25, med, p75 float64
	min, max      float64
}

func summarize(xs []float64) side {
	s := slices.Sorted(slices.Values(xs))
	return side{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75), s[0], s[len(s)-1]}
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 { return (s.p75 - s.p25) / math.Abs(s.med) }

// classify compares b against a. worse is b's median change in the metric's
// bad direction, as a share of a's median. A metric whose spread on either
// side exceeds its bound is unresolved, unless every sample of b reads
// better than every sample of a.
func classify(a, b side, lowerIsBetter bool, bound float64) (worse float64, status string) {
	worse = (b.med - a.med) / math.Abs(a.med)
	allBetter := b.max < a.min
	if !lowerIsBetter {
		worse = -worse
		allBetter = b.min > a.max
	}
	switch {
	case allBetter:
		return worse, "ok"
	case a.spread() > bound || b.spread() > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	default:
		return worse, "ok"
	}
}

// compareSets prints, per workload and end-to-end metric, both sets'
// quartiles, how much worse b is, the bound and a verdict.
func compareSets(out io.Writer, benchPath, aPath, bPath string) error {
	var cfg benchmarkFile
	if err := readJSON(benchPath, &cfg); err != nil {
		return err
	}
	var a, b runSetFile
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-18s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "a p25/median/p75", "b p25/median/p75", "worse by", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		sa, sb := samplesOf(a, w.name), samplesOf(b, w.name)
		if sa == nil || sb == nil {
			continue
		}
		for _, m := range cfg.EndToEnd {
			if len(sa[m.Name]) == 0 || len(sb[m.Name]) == 0 {
				continue
			}
			x, y := summarize(sa[m.Name]), summarize(sb[m.Name])
			worse, status := classify(x, y, m.Better == "lower", m.Bound)
			if status == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-18s %-32s %-32s %+7.2f%% %5.1f%%  %s\n", w.name, m.Name,
				fmt.Sprintf("%.5g/%.5g/%.5g", x.p25, x.med, x.p75),
				fmt.Sprintf("%.5g/%.5g/%.5g", y.p25, y.med, y.p75),
				100*worse, 100*m.Bound, status)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("bench: %d metrics regressed", regressed)
	}
	return nil
}

// samplesOf pools the samples of every untraced run of a workload in a set.
func samplesOf(set runSetFile, name string) map[string][]float64 {
	var out map[string][]float64
	for _, r := range set.Runs {
		if r.Workload != name || r.Trace {
			continue
		}
		if out == nil {
			out = map[string][]float64{}
		}
		for k, v := range r.Samples {
			out[k] = append(out[k], v...)
		}
	}
	return out
}

// printSet prints a run set's end-to-end metrics as one table.
func printSet(out io.Writer, set runSetFile) {
	fmt.Fprintf(out, "%-14s %-8s", "workload", "failed")
	for _, d := range e2eDefs {
		fmt.Fprintf(out, " %18s", d.name)
	}
	fmt.Fprintln(out)
	for _, r := range set.Runs {
		fmt.Fprintf(out, "%-14s %-8s", r.Workload, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		for _, d := range e2eDefs {
			m, ok := r.Metrics[d.name]
			if !ok {
				fmt.Fprintf(out, " %18s", "-")
				continue
			}
			fmt.Fprintf(out, " %18s", fmt.Sprintf("%.5g %s", m.Value, m.Unit))
		}
		fmt.Fprintln(out)
	}
}
