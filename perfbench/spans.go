package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one host-timed public call the benchmark made. Times are host
// nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the benchmark's own spans in memory. A nil tracer is the
// untraced mode: begin returns 0 and end does nothing, so call sites
// instrument unconditionally and pay no clock reads when tracing is off.
type tracer struct {
	epoch time.Time
	spans []span
	// root is the open Env.Run span; calls made from inside the event loop
	// (Create, MutateStatus, Scan, Restart) hang under it.
	root int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// runRoot runs fn (the event loop) inside the root Env.Run span.
func (t *tracer) runRoot(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.root = t.begin("Env.Run", 0)
	fn()
	t.end(t.root)
	t.root = 0
}

// call opens a span under the running Env.Run span.
func (t *tracer) call(name string) int {
	if t == nil {
		return 0
	}
	return t.begin(name, t.root)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// durations returns the durations of every closed span with the given
// name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
