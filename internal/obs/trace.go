package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"time"
)

// Trace is a tree of spans describing one statement's execution phases,
// timed by the simulated clock and carrying per-span I/O attribution. The
// bulk-delete engine opens one child span per plan phase (victim collection,
// access-index pass, heap pass, one span per remaining index, ...); each
// span's Delta is the counter diff between its start and finish.
//
// A Trace is safe for concurrent use, but attribution assumes the spans of
// one trace open and close sequentially (the engine runs its passes on one
// goroutine); concurrently open sibling spans each charge themselves all
// work done while they were open.
type Trace struct {
	mu   sync.Mutex
	src  Source
	root *Span
}

// NewTrace starts a trace whose root span begins immediately.
func NewTrace(name, detail string, src Source) *Trace {
	t := &Trace{src: src}
	t.root = &Span{Name: name, Detail: detail, tr: t, open: true}
	snap := src.Capture()
	t.root.begin = snap
	t.root.Start = snap.Clock
	return t
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Finish closes the root span (and any still-open descendants) and drops
// the counter source: a kept finished trace holds its spans, not the disk
// and pool it measured.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.finishLocked(t.src.Capture())
	t.src = Source{}
}

// Span is one node of the trace tree.
type Span struct {
	Name     string
	Detail   string
	Start    time.Duration // simulated clock at span start
	End      time.Duration // simulated clock at span finish
	IO       Delta         // counter diff over the span's lifetime
	Attrs    []Attr        // ordered key/value annotations
	Children []*Span

	tr    *Trace
	begin Snapshot
	open  bool
}

// Attr is one span annotation; order is preserved for stable rendering.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Child opens a sub-span. Nil-safe: a nil receiver returns nil, so callers
// can trace optionally without guarding every call site.
func (s *Span) Child(name, detail string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	c := &Span{Name: name, Detail: detail, tr: s.tr, open: true}
	snap := s.tr.src.Capture()
	c.begin = snap
	c.Start = snap.Clock
	s.Children = append(s.Children, c)
	return c
}

// Finish closes the span, computing its I/O delta. Nil-safe; finishing a
// finished span is a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.finishLocked(s.tr.src.Capture())
}

func (s *Span) finishLocked(snap Snapshot) {
	for _, c := range s.Children {
		c.finishLocked(snap)
	}
	if !s.open {
		return
	}
	s.open = false
	s.End = snap.Clock
	s.IO = snap.Sub(s.begin)
}

// Set attaches a string annotation. Nil-safe.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Delta returns the span's I/O attribution (zero for a nil span).
func (s *Span) Delta() Delta {
	if s == nil {
		return Delta{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.IO
}

// Find returns the first span (depth-first) with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return findSpan(t.root, name)
}

func findSpan(s *Span, name string) *Span {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// Format renders the trace as an indented phase tree with per-span I/O.
func (t *Trace) Format() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	renderSpan(&b, t.root, "", true, true)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, prefix string, last, root bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if root {
		connector = ""
		childPrefix = "   "
	}
	b.WriteString(prefix + connector + s.Name)
	if s.Detail != "" {
		b.WriteString("  " + s.Detail)
	}
	b.WriteString("  [" + s.IO.String() + "]")
	for _, a := range s.Attrs {
		b.WriteString("  " + a.Key + "=" + a.Value)
	}
	b.WriteString("\n")
	for i, c := range s.Children {
		renderSpan(b, c, childPrefix, i == len(s.Children)-1, false)
	}
}

// spanJSON is the wire form of one span; field order is fixed, durations
// are integral microseconds, so the encoding is stable across runs.
type spanJSON struct {
	Name      string     `json:"name"`
	Detail    string     `json:"detail,omitempty"`
	StartUS   int64      `json:"start_us"`
	ElapsedUS int64      `json:"elapsed_us"`
	IO        DeltaWire  `json:"io"`
	Attrs     []Attr     `json:"attrs,omitempty"`
	Children  []spanJSON `json:"children,omitempty"`
}

// DeltaWire is the stable JSON form of a Delta.
type DeltaWire struct {
	ElapsedUS   int64  `json:"elapsed_us"`
	Reads       uint64 `json:"reads"`
	Writes      uint64 `json:"writes"`
	Seeks       uint64 `json:"seeks"`
	NearOps     uint64 `json:"near_ops"`
	SeqOps      uint64 `json:"seq_ops"`
	ChainedRuns uint64 `json:"chained_runs"`
	Allocated   uint64 `json:"allocated"`
	Compares    uint64 `json:"compares"`
	Records     uint64 `json:"records"`
	Hits        uint64 `json:"pool_hits"`
	Misses      uint64 `json:"pool_misses"`
	Evictions   uint64 `json:"evictions"`
	DirtyEvicts uint64 `json:"dirty_evicts"`
	Swept       uint64 `json:"swept,omitempty"`
	WALBytes    uint64 `json:"wal_bytes"`
	Faults      uint64 `json:"faults_injected,omitempty"`
}

// Wire converts the delta to its stable JSON form.
func (d Delta) Wire() DeltaWire {
	return DeltaWire{
		ElapsedUS:   d.Elapsed.Microseconds(),
		Reads:       d.Reads,
		Writes:      d.Writes,
		Seeks:       d.Seeks,
		NearOps:     d.NearOps,
		SeqOps:      d.SeqOps,
		ChainedRuns: d.ChainedRuns,
		Allocated:   d.Allocated,
		Compares:    d.Compares,
		Records:     d.Records,
		Hits:        d.Hits,
		Misses:      d.Misses,
		Evictions:   d.Evictions,
		DirtyEvicts: d.DirtyEvicts,
		Swept:       d.Swept,
		WALBytes:    d.WALBytes,
		Faults:      d.Faults,
	}
}

func toSpanJSON(s *Span) spanJSON {
	out := spanJSON{
		Name:      s.Name,
		Detail:    s.Detail,
		StartUS:   s.Start.Microseconds(),
		ElapsedUS: (s.End - s.Start).Microseconds(),
		IO:        s.IO.Wire(),
		Attrs:     s.Attrs,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, toSpanJSON(c))
	}
	return out
}

// JSON encodes the trace with a stable schema (fixed key order, integral
// microsecond durations).
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.MarshalIndent(toSpanJSON(t.root), "", "  ")
}

// RawJSON is JSON() without error plumbing for embedding in larger
// documents; it returns "null" on a nil trace.
func (t *Trace) RawJSON() json.RawMessage {
	b, err := t.JSON()
	if err != nil {
		return json.RawMessage("null")
	}
	return json.RawMessage(b)
}
