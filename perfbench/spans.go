package main

import (
	"encoding/json"
	"io"
	"time"

	"aggmac/internal/telemetry"
)

// windowInterval is the simulated time one window span covers on a
// traced core.Run* call. One second keeps the sampler's own cost — every
// gauge in the telemetry catalogue runs at each tick — small next to the
// run at N = 1600.
const windowInterval = time.Second

// span is one timed interval of a traced run. Spans of one pass share
// Pass; Parent is the id of the enclosing span, 0 for a pass's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced passes pay one branch per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(pass, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Pass: pass,
		Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// writeChrome writes the spans as Chrome trace events (chrome://tracing,
// Perfetto), one track per pass.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Pass,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}

// probe is what one pass hands the workload's calls: where to hang spans
// and, on traced passes, a telemetry recorder for every core.Run* call.
// A nil probe records nothing and attaches no recorder.
type probe struct {
	tr      *tracer
	pass    int
	parent  int
	metrics bool
	// summaries holds the telemetry summary of each recorded core.Run*
	// call, in call order.
	summaries []*telemetry.Summary
}

// span opens a child of the current span and makes it current until the
// returned func closes it.
func (p *probe) span(name string) func() {
	if p == nil {
		return func() {}
	}
	id, prev := p.tr.begin(p.pass, p.parent, name), p.parent
	p.parent = id
	return func() {
		p.tr.end(id)
		p.parent = prev
	}
}

// recorder returns the telemetry recorder for one core.Run* call, or nil
// when the pass records no metrics. Its first gauge, registered before
// the run registers its own, closes a window span and opens the next at
// every sampling tick. done closes the last window and keeps the run's
// summary.
func (p *probe) recorder() (rec *telemetry.Recorder, done func()) {
	if p == nil || !p.metrics {
		return nil, func() {}
	}
	rec = telemetry.NewRecorder(windowInterval)
	cur := p.tr.begin(p.pass, p.parent, "window")
	n := 0
	rec.Registry(0).Gauge("bench.window", func() float64 {
		p.tr.end(cur)
		cur = p.tr.begin(p.pass, p.parent, "window")
		n++
		return float64(n)
	})
	return rec, func() {
		p.tr.end(cur)
		p.summaries = append(p.summaries, rec.Summary())
	}
}
