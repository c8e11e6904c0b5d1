package config

import (
	"strings"
	"testing"

	"sgprs/internal/sim"
)

// FuzzParseFaults drives the inline -faults JSON through ParseFaults and,
// when it is accepted, through a short SGPRS run: every input must end in an
// error, or in a configuration the simulator finishes without a panic. A
// validated fault config that crashes a run, such as an overrun pushing a
// finish instant past the clock, is the defect this guards against.
func FuzzParseFaults(f *testing.F) {
	f.Add(`{"overrun":{"model":"constant","factor":1e300}}`)
	f.Add(`{"transient":{"prob":0.2,"policy":"skip-job","max_retries":2,"backoff_ms":1}}`)
	f.Add(`{"degradation":[{"start_sec":1.1,"end_sec":1.3,"sms":10}]}`)
	f.Fuzz(func(t *testing.T, arg string) {
		if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
			t.Skip("ParseFaults reads an argument not starting with '{' as a file path")
		}
		fc, err := ParseFaults(arg)
		if err != nil {
			return
		}
		// Normalize requires the horizon to exceed the 1 s warm-up.
		_, _ = sim.Run(sim.RunConfig{
			Kind:       sim.KindSGPRS,
			ContextSMs: []int{34, 34},
			NumTasks:   2,
			HorizonSec: 1.5,
			Faults:     fc,
		})
	})
}
