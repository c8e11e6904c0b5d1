// Package trace records GPU execution timelines and exports them as Chrome
// trace JSON (load in chrome://tracing or https://ui.perfetto.dev) or CSV.
//
// A Recorder is a gpu.Hook: install it with Device.AddHook (or as
// sim.RunConfig.Observer) before the run, then export after the engine
// drains. It records a span when a kernel retires, from the kernel's latest
// start to now, labelled with the kernel's Arg; it only reads the kernels
// it is shown, so a traced run is the run it would have been untraced.
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
	r.spans = append(r.spans, Span{
		Label:   fmt.Sprint(k.Arg),
		Context: st.Context().Name(),
		Stream:  st.String(),
		Start:   k.StartedAt(),
		End:     now,
	})
}

// Spans lists completed spans in completion order.
func (r *Recorder) Spans() []Span { return r.spans }

// chromeEvent is one Chrome trace "complete" event.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  string  `json:"pid"` // context
	Tid  string  `json:"tid"` // stream
}

// WriteChromeTrace emits the spans as a Chrome trace JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Label,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(des.Microsecond),
			Dur:  float64(s.Duration()) / float64(des.Microsecond),
			Pid:  s.Context,
			Tid:  s.Stream,
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("trace: chrome export: %w", err)
	}
	return nil
}

// WriteCSV emits the spans as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"label", "context", "stream", "start_ms", "end_ms", "duration_ms"}); err != nil {
		return fmt.Errorf("trace: csv header: %w", err)
	}
	for _, s := range r.spans {
		rec := []string{
			s.Label,
			s.Context,
			s.Stream,
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
