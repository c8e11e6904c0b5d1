// Package trace records GPU execution timelines and exports them as Chrome
// trace JSON (load in chrome://tracing or https://ui.perfetto.dev) or CSV.
//
// A Recorder is a gpu.Hook: install it with Device.AddHook (or as
// sim.RunConfig.Observer) before the run, then export after the engine
// drains. It records a span when a kernel retires, from the kernel's latest
// start to now, labelled with the kernel's Arg; it only reads the kernels
// it is shown, so a traced run is the run it would have been untraced.
//
// Each span carries its device's fleet position (gpu.Device.ID) beside its
// context, because every device of a fleet names its contexts alike. The
// exports draw one track per (device, context): a trace holding a span of
// any device but 0 names each track "gpu<d>/<context>", while a lone
// device's trace keeps the bare context names it has always had.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
)

// Span is one completed kernel execution.
type Span struct {
	Label   string
	Device  int
	Context string
	Stream  string
	Start   des.Time
	End     des.Time
}

// Duration reports the span length.
func (s Span) Duration() des.Time { return s.End - s.Start }

// Recorder collects kernel spans. It implements gpu.Hook.
type Recorder struct {
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// KernelLaunched implements gpu.Hook; a span is recorded when its kernel
// retires.
func (r *Recorder) KernelLaunched(*gpu.Kernel, des.Time) {}

// KernelRetired implements gpu.Hook: it records the span of k's latest
// launch, which ends now.
func (r *Recorder) KernelRetired(k *gpu.Kernel, now des.Time) {
	st := k.Stream()
	ctx := st.Context()
	r.spans = append(r.spans, Span{
		Label:   fmt.Sprint(k.Arg),
		Device:  ctx.Device().ID(),
		Context: ctx.Name(),
		Stream:  st.String(),
		Start:   k.StartedAt(),
		End:     now,
	})
}

// Spans lists completed spans in completion order.
func (r *Recorder) Spans() []Span { return r.spans }

// fleet reports whether the spans come from more than device 0, so their
// tracks need the device in their names.
func (r *Recorder) fleet() bool {
	for _, s := range r.spans {
		if s.Device != 0 {
			return true
		}
	}
	return false
}

// onDevice prefixes name with span s's device when qualify is set.
func onDevice(qualify bool, s Span, name string) string {
	if !qualify {
		return name
	}
	return "gpu" + strconv.Itoa(s.Device) + "/" + name
}

// chromeEvent is one Chrome trace "complete" event.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  string  `json:"pid"` // device and context
	Tid  string  `json:"tid"` // stream
}

// WriteChromeTrace emits the spans as a Chrome trace JSON array, one process
// (pid) per track.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, len(r.spans))
	qualify := r.fleet()
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Label,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(des.Microsecond),
			Dur:  float64(s.Duration()) / float64(des.Microsecond),
			Pid:  onDevice(qualify, s, s.Context),
			Tid:  onDevice(qualify, s, s.Stream),
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("trace: chrome export: %w", err)
	}
	return nil
}

// WriteCSV emits the spans as CSV with a header row; the context and stream
// columns name the device too when the trace holds more than one.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"label", "context", "stream", "start_ms", "end_ms", "duration_ms"}); err != nil {
		return fmt.Errorf("trace: csv header: %w", err)
	}
	qualify := r.fleet()
	for _, s := range r.spans {
		rec := []string{
			s.Label,
			onDevice(qualify, s, s.Context),
			onDevice(qualify, s, s.Stream),
			strconv.FormatFloat(s.Start.Milliseconds(), 'f', 6, 64),
			strconv.FormatFloat(s.End.Milliseconds(), 'f', 6, 64),
			strconv.FormatFloat(s.Duration().Milliseconds(), 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
