package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one statement share req,
// whichever depth replayed it; parent is the index of the enclosing span
// (the round, or the delete whose phases these are), -1 for a root.
type span struct {
	name   string
	lane   string // the depth replayed, or "sim" for simulated-clock phases
	start  time.Duration
	dur    time.Duration
	parent int32
	req    int32
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per statement.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(name, lane string, start time.Time, dur time.Duration, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, lane, start.Sub(t.t0), dur, parent, req})
	return int32(len(t.spans) - 1)
}

// addSim records a span on the simulated clock (a bulk delete's phase).
func (t *tracer) addSim(name string, start, dur time.Duration, parent, req int32) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name, "sim", start, dur, parent, req})
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto). Wall-clock lanes are threads of process 1, one per replay
// depth; simulated-clock phases are process 2.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	lanes := map[string]int{}
	enc := json.NewEncoder(w)
	_, _ = w.WriteString("{\"traceEvents\":[\n") // a bufio write error resurfaces at Flush
	for i, s := range t.spans {
		tid, ok := lanes[s.lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.lane] = tid
		}
		pid := 1
		if s.lane == "sim" {
			pid = 2
		}
		if i > 0 {
			_, _ = w.WriteString(",")
		}
		ev := traceEvent{Name: s.name, Cat: s.lane, Ph: "X", PID: pid, TID: tid,
			TS: float64(s.start) / float64(time.Microsecond), Dur: float64(s.dur) / float64(time.Microsecond),
			Args: map[string]any{"span": i, "parent": s.parent, "req": s.req}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
