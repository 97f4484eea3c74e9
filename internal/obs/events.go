// Statement-lifecycle event log. Every statement the DB admits gets an ID
// and an ordered stream of structured events — admitted, lock waits/grants
// with holder identity, gate transitions, §3.1 early release, executor
// phases, DAG node start/finish with device, WAL record appends, commit,
// release-all — buffered lock-free per statement (CAS-push list, global
// sequence numbers) so hot paths never contend on the log.
//
// Timestamps come from the simulated disk clock (SetNow), so for a serial
// uncontended run the whole event stream is deterministic and golden-
// testable; real-time wait durations (lock and WAL-append blocking) travel in a
// separate WaitUS field that is zero in that scenario. The log exports as
// JSONL (one event per line, seq-ordered) and as Chrome trace_event JSON
// so a whole RunConcurrent batch renders as a timeline in chrome://tracing
// (one thread row per statement; parallel DAG nodes as async spans).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one lifecycle event.
type EventKind string

// The statement lifecycle, in the order a bulk delete emits it.
const (
	EvBegin        EventKind = "begin"         // statement admitted, ID assigned
	EvLock         EventKind = "lock"          // table lock granted (wait_us > 0 when it blocked)
	EvGateOffline  EventKind = "gate-offline"  // index gate taken offline (§3.1)
	EvGateOnline   EventKind = "gate-online"   // gate back online, side-file drained
	EvEarlyRelease EventKind = "early-release" // exclusive lock dropped after the critical set
	EvPhase        EventKind = "phase"         // executor phase change
	EvNodeStart    EventKind = "node-start"    // parallel-section pass started on its device
	EvNodeFinish   EventKind = "node-finish"   // parallel-section pass done
	EvWAL          EventKind = "wal"           // WAL lifecycle record appended
	EvCommit       EventKind = "commit"        // commit record flushed
	EvEnd          EventKind = "end"           // release-all, statement finished

	// Cancellation lifecycle (emitted only by cancelled/retried
	// statements, so existing streams are unchanged).
	EvCancel EventKind = "cancel" // cancellation observed at a recoverable boundary
	EvAbort  EventKind = "abort"  // abort-to-consistency replay finished
	EvRetry  EventKind = "retry"  // statement re-admitted by the retry policy
)

// Event is one entry of a statement's lifecycle stream. Seq is a global
// (per-EventLog) sequence number giving a total order across statements;
// AtUS is the simulated clock. WaitUS is real blocking time and therefore
// the only nondeterministic field — it is zero whenever nothing blocked.
type Event struct {
	Seq    uint64
	Stmt   uint64
	AtUS   int64
	Kind   EventKind
	Detail string
	Device int // device a node ran on; -1 when not device-bound
	WaitUS int64
}

type eventNode struct {
	ev   Event
	next *eventNode
}

// Stmt is one statement's handle into the event log. All methods are
// nil-safe so the engine can thread an optional *Stmt through without
// guarding call sites, and event pushes are lock-free.
type Stmt struct {
	log     *EventLog
	id      uint64
	kind    string
	table   string
	startUS int64

	head  atomic.Pointer[eventNode]
	phase atomic.Pointer[string]
	pages atomic.Int64
	rows  atomic.Int64
	endUS atomic.Int64 // -1 while in flight
}

// ID returns the statement's log-assigned ID (0 for a nil statement).
func (s *Stmt) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *Stmt) push(kind EventKind, detail string, device int, wait time.Duration) {
	if s == nil || s.log == nil {
		return
	}
	n := &eventNode{ev: Event{
		Seq:    s.log.seq.Add(1),
		Stmt:   s.id,
		AtUS:   s.log.nowUS(),
		Kind:   kind,
		Detail: detail,
		Device: device,
		WaitUS: wait.Microseconds(),
	}}
	for {
		old := s.head.Load()
		n.next = old
		if s.head.CompareAndSwap(old, n) {
			return
		}
	}
}

// Event appends a plain lifecycle event.
func (s *Stmt) Event(kind EventKind, detail string) { s.push(kind, detail, -1, 0) }

// EventDev appends a device-bound event (DAG node start/finish).
func (s *Stmt) EventDev(kind EventKind, detail string, device int) {
	s.push(kind, detail, device, 0)
}

// EventWait appends an event carrying real blocked time (lock waits).
func (s *Stmt) EventWait(kind EventKind, detail string, waited time.Duration) {
	s.push(kind, detail, -1, waited)
}

// SetPhase publishes the executor phase (live progress) and records the
// transition as an event.
func (s *Stmt) SetPhase(phase string) {
	if s == nil {
		return
	}
	p := phase
	s.phase.Store(&p)
	s.push(EvPhase, phase, -1, 0)
}

// AddPages bumps the pages-scanned progress counter (no event: this is the
// per-page hot path).
func (s *Stmt) AddPages(n int64) {
	if s != nil {
		s.pages.Add(n)
	}
}

// AddRows bumps the victims-deleted progress counter.
func (s *Stmt) AddRows(n int64) {
	if s != nil {
		s.rows.Add(n)
	}
}

// Events returns the statement's events in chronological (seq) order.
func (s *Stmt) Events() []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for n := s.head.Load(); n != nil; n = n.next {
		out = append(out, n.ev)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// StmtStatus is a point-in-time snapshot of one statement's progress.
type StmtStatus struct {
	ID      uint64 `json:"id"`
	Kind    string `json:"kind"`
	Table   string `json:"table"`
	Phase   string `json:"phase,omitempty"`
	Pages   int64  `json:"pages"`
	Rows    int64  `json:"rows"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"` // -1 while in flight
	Events  int    `json:"events"`
}

// Status snapshots the statement (zero value for nil).
func (s *Stmt) Status() StmtStatus {
	if s == nil {
		return StmtStatus{EndUS: -1}
	}
	st := StmtStatus{
		ID:      s.id,
		Kind:    s.kind,
		Table:   s.table,
		Pages:   s.pages.Load(),
		Rows:    s.rows.Load(),
		StartUS: s.startUS,
		EndUS:   s.endUS.Load(),
		Events:  len(s.Events()),
	}
	if p := s.phase.Load(); p != nil {
		st.Phase = *p
	}
	return st
}

// maxKeptStatements bounds the log's finished-statement retention.
const maxKeptStatements = 256

// EventLog owns statement IDs, the global event sequence, and the set of
// in-flight and recently finished statements. The DB wires SetNow to the
// simulated disk clock at open.
type EventLog struct {
	seq atomic.Uint64
	ids atomic.Uint64
	now atomic.Pointer[func() time.Duration]

	mu       sync.Mutex
	inflight map[uint64]*Stmt
	done     []*Stmt
}

// NewEventLog returns an empty log (timestamps read 0 until SetNow).
func NewEventLog() *EventLog {
	return &EventLog{inflight: make(map[uint64]*Stmt)}
}

// SetNow installs the clock used to stamp events — the simulated disk
// clock, so event times line up with span traces and are deterministic.
func (l *EventLog) SetNow(now func() time.Duration) {
	if l != nil && now != nil {
		l.now.Store(&now)
	}
}

func (l *EventLog) nowUS() int64 {
	if l == nil {
		return 0
	}
	if f := l.now.Load(); f != nil {
		return (*f)().Microseconds()
	}
	return 0
}

// Begin registers a new statement and emits its admitted event.
func (l *EventLog) Begin(kind, table string) *Stmt {
	if l == nil {
		return nil
	}
	s := &Stmt{log: l, id: l.ids.Add(1), kind: kind, table: table, startUS: l.nowUS()}
	s.endUS.Store(-1)
	l.mu.Lock()
	l.inflight[s.id] = s
	l.mu.Unlock()
	s.push(EvBegin, kind+" table="+table, -1, 0)
	return s
}

// End emits the release-all event and retires the statement into the
// bounded done ring.
func (s *Stmt) End() {
	if s == nil || s.log == nil {
		return
	}
	s.push(EvEnd, "", -1, 0)
	s.endUS.Store(s.log.nowUS())
	l := s.log
	l.mu.Lock()
	delete(l.inflight, s.id)
	l.done = append(l.done, s)
	if len(l.done) > maxKeptStatements {
		l.done = l.done[len(l.done)-maxKeptStatements:]
	}
	l.mu.Unlock()
}

// Get returns the in-flight statement with the given ID, or nil — how the
// lock manager's OnLock hook routes events to their owner.
func (l *EventLog) Get(id uint64) *Stmt {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight[id]
}

// InFlight snapshots every running statement, ID-ordered.
func (l *EventLog) InFlight() []StmtStatus {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	stmts := make([]*Stmt, 0, len(l.inflight))
	for _, s := range l.inflight {
		stmts = append(stmts, s)
	}
	l.mu.Unlock()
	sort.Slice(stmts, func(i, j int) bool { return stmts[i].id < stmts[j].id })
	out := make([]StmtStatus, len(stmts))
	for i, s := range stmts {
		out[i] = s.Status()
	}
	return out
}

// Statements returns finished then in-flight statements, ID-ordered.
func (l *EventLog) Statements() []*Stmt {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]*Stmt, 0, len(l.done)+len(l.inflight))
	out = append(out, l.done...)
	for _, s := range l.inflight {
		out = append(out, s)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Events returns every retained event across all statements in global
// sequence order.
func (l *EventLog) Events() []Event {
	var out []Event
	for _, s := range l.Statements() {
		out = append(out, s.Events()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// eventJSON is the stable JSONL wire form of one event.
type eventJSON struct {
	Seq    uint64    `json:"seq"`
	Stmt   uint64    `json:"stmt"`
	AtUS   int64     `json:"at_us"`
	Kind   EventKind `json:"kind"`
	Detail string    `json:"detail,omitempty"`
	Device *int      `json:"device,omitempty"`
	WaitUS int64     `json:"wait_us,omitempty"`
}

func (e Event) wire() eventJSON {
	w := eventJSON{
		Seq:    e.Seq,
		Stmt:   e.Stmt,
		AtUS:   e.AtUS,
		Kind:   e.Kind,
		Detail: e.Detail,
		WaitUS: e.WaitUS,
	}
	if e.Device >= 0 {
		dev := e.Device
		w.Device = &dev
	}
	return w
}

// WriteJSONL writes the whole log as JSON Lines, one event per line in
// global sequence order.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	for _, ev := range l.Events() {
		b, err := json.Marshal(ev.wire())
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of a Chrome trace_event JSON array. Args is a
// map, but encoding/json sorts map keys, so output stays deterministic.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace accumulates trace_event entries for chrome://tracing (or
// Perfetto). Build one from an EventLog, span Traces, or both, then JSON().
type ChromeTrace struct {
	events []chromeEvent
}

func (c *ChromeTrace) add(ev chromeEvent) { c.events = append(c.events, ev) }

// SetProcessName emits the process_name metadata record for a pid.
func (c *ChromeTrace) SetProcessName(pid int, name string) {
	c.add(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": name}})
}

// SetThreadName emits the thread_name metadata record for a tid.
func (c *ChromeTrace) SetThreadName(pid, tid int, name string) {
	c.add(chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]string{"name": name}})
}

// AddSpanTree renders a statement span trace (obs.Trace) as nested
// complete events on one thread row — the bench tools use this to export
// their experiment traces.
func (c *ChromeTrace) AddSpanTree(pid, tid int, t *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c.addSpan(pid, tid, t.root)
}

func (c *ChromeTrace) addSpan(pid, tid int, s *Span) {
	name := s.Name
	if s.Detail != "" {
		name += " " + s.Detail
	}
	c.add(chromeEvent{
		Name: name, Cat: "span", Ph: "X",
		TS: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(),
		Pid: pid, Tid: tid,
	})
	for _, ch := range s.Children {
		c.addSpan(pid, tid, ch)
	}
}

// JSON encodes the accumulated events as a Chrome trace_event document.
func (c *ChromeTrace) JSON() ([]byte, error) {
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: c.events, DisplayTimeUnit: "ms"}
	if doc.TraceEvents == nil {
		doc.TraceEvents = []chromeEvent{}
	}
	return json.MarshalIndent(doc, "", " ")
}

// statementPid is the pid all statement rows share in Chrome exports.
const statementPid = 1

// ChromeTraceJSON renders the whole log as a Chrome trace_event document:
// one thread row per statement carrying its lifetime span, phase sub-spans,
// and instant markers; parallel DAG nodes become async spans so their
// overlapping simulated-time intervals don't fight for nesting.
func (l *EventLog) ChromeTraceJSON() ([]byte, error) {
	ct := &ChromeTrace{}
	ct.SetProcessName(statementPid, "bulkdel statements")
	for _, s := range l.Statements() {
		tid := int(s.id)
		ct.SetThreadName(statementPid, tid, fmt.Sprintf("stmt %d %s %s", s.id, s.kind, s.table))
		end := s.endUS.Load()
		if end < 0 {
			end = l.nowUS()
		}
		ct.add(chromeEvent{
			Name: s.kind + " " + s.table, Cat: "statement", Ph: "X",
			TS: s.startUS, Dur: end - s.startUS, Pid: statementPid, Tid: tid,
			Args: map[string]string{
				"stmt":  fmt.Sprint(s.id),
				"pages": fmt.Sprint(s.pages.Load()),
				"rows":  fmt.Sprint(s.rows.Load()),
			},
		})
		type nodeOpen struct {
			ts  int64
			seq uint64
			dev int
		}
		open := make(map[string][]nodeOpen)
		var phName string
		var phStart int64
		for _, ev := range s.Events() {
			switch ev.Kind {
			case EvBegin, EvEnd:
				// Covered by the statement's lifetime span.
			case EvPhase:
				if phName != "" {
					ct.add(chromeEvent{
						Name: phName, Cat: "phase", Ph: "X",
						TS: phStart, Dur: ev.AtUS - phStart, Pid: statementPid, Tid: tid,
					})
				}
				phName, phStart = ev.Detail, ev.AtUS
			case EvNodeStart:
				open[ev.Detail] = append(open[ev.Detail], nodeOpen{ts: ev.AtUS, seq: ev.Seq, dev: ev.Device})
			case EvNodeFinish:
				if q := open[ev.Detail]; len(q) > 0 {
					n := q[len(q)-1]
					open[ev.Detail] = q[:len(q)-1]
					id := fmt.Sprintf("n%d", n.seq)
					args := map[string]string{"device": fmt.Sprint(n.dev)}
					ct.add(chromeEvent{Name: ev.Detail, Cat: "node", Ph: "b",
						TS: n.ts, Pid: statementPid, Tid: tid, ID: id, Args: args})
					ct.add(chromeEvent{Name: ev.Detail, Cat: "node", Ph: "e",
						TS: ev.AtUS, Pid: statementPid, Tid: tid, ID: id})
				}
			default:
				name := string(ev.Kind)
				if ev.Detail != "" {
					name += " " + ev.Detail
				}
				ie := chromeEvent{Name: name, Cat: string(ev.Kind), Ph: "i",
					TS: ev.AtUS, Pid: statementPid, Tid: tid, S: "t"}
				if ev.WaitUS > 0 {
					ie.Args = map[string]string{"wait_us": fmt.Sprint(ev.WaitUS)}
				}
				ct.add(ie)
			}
		}
		if phName != "" {
			ct.add(chromeEvent{
				Name: phName, Cat: "phase", Ph: "X",
				TS: phStart, Dur: end - phStart, Pid: statementPid, Tid: tid,
			})
		}
	}
	return ct.JSON()
}
