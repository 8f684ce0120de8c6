package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark around a call into the
// program. Spans of one session share its session ID.
type span struct {
	name, cat           string
	id, parent, session uint64
	tid                 int
	start               time.Time
	dur                 time.Duration
}

// spanLog keeps spans in memory until the run ends; it is safe for
// concurrent use by the driver goroutines.
type spanLog struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// begin starts a span whose end is recorded by the returned function. A
// span given no session starts one: its own ID is its session's.
func (l *spanLog) begin(name, cat string, parent, session uint64, tid int) (uint64, func()) {
	id := l.newID()
	if session == 0 {
		session = id
	}
	start := time.Now()
	return id, func() {
		l.add(span{name: name, cat: cat, id: id, parent: parent, session: session, tid: tid,
			start: start, dur: time.Since(start)})
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which trace
// viewers such as Perfetto and chrome://tracing open directly.
func (l *spanLog) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "session": s.session},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return w.Flush()
}
