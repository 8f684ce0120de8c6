package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"specdb"
	"specdb/internal/trace"
)

// answer is one GO's result reduced to what the correctness check compares:
// the row count and an order-independent multiset fingerprint of the rows,
// with every value keyed by its column name so a rewritten plan that emits
// the same columns in another order still matches.
type answer struct {
	rows int64
	key  uint64
	// sim is the simulated execution time the engine charged, in seconds.
	sim float64
}

// fingerprint reduces a result to its answer.
func fingerprint(res *specdb.Result) answer {
	colKeys := make([]uint64, len(res.Columns))
	for i, c := range res.Columns {
		colKeys[i] = hashString(c)
	}
	var sum uint64
	for _, row := range res.Rows {
		var rowKey uint64
		for i, v := range row {
			rowKey += mix(colKeys[i] ^ hashValue(v))
		}
		sum += mix(rowKey)
	}
	return answer{rows: res.RowCount, key: sum, sim: res.Duration.Seconds()}
}

func hashValue(v any) uint64 {
	switch x := v.(type) {
	case int64:
		return mix(uint64(x))
	case float64:
		return mix(math.Float64bits(x) ^ 0x5bd1e995)
	case string:
		return hashString(x)
	default:
		return hashString(fmt.Sprintf("%T:%v", v, v))
	}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// userTrace is one session's interaction and the spec-off reference answer
// of each of its GOs.
type userTrace struct {
	index  int
	events []trace.Event
	refs   []answer
	// stmts is each GO's statement as SQL.
	stmts []string
}

// sample is what one replay pass measured. Samples of several passes and
// driver goroutines merge with add.
type sample struct {
	goMs, editMs           []float64
	editS, thinkS, goS     float64
	gos                    int
	simOn, simOff          float64
	attempted, failed      int
	failures               []string
	issued, completed      int
	hits, misses           int
	wasteS, dedupS         float64
	predIssued, predGos    int
	answerHits             int
	sharedBuilds, attached int
	checkTime              time.Duration
	checkAlloc             uint64
}

func (s *sample) add(o *sample) {
	s.goMs = append(s.goMs, o.goMs...)
	s.editMs = append(s.editMs, o.editMs...)
	s.editS += o.editS
	s.thinkS += o.thinkS
	s.goS += o.goS
	s.gos += o.gos
	s.simOn += o.simOn
	s.simOff += o.simOff
	s.attempted += o.attempted
	s.failed += o.failed
	s.failures = append(s.failures, o.failures...)
	s.issued += o.issued
	s.completed += o.completed
	s.hits += o.hits
	s.misses += o.misses
	s.wasteS += o.wasteS
	s.dedupS += o.dedupS
	s.predIssued += o.predIssued
	s.predGos += o.predGos
	s.answerHits += o.answerHits
	s.sharedBuilds += o.sharedBuilds
	s.attached += o.attached
	s.checkTime += o.checkTime
	s.checkAlloc += o.checkAlloc
}

// fail records one failed operation. Only the first few messages are kept.
func (s *sample) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 10 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// player replays user traces through one Session each. A player belongs to
// one driver goroutine; its calls are a closed loop: the next call is sent
// only after the previous one returned, and simulated think-time passes
// through Session.Think, never through a sleep.
type player struct {
	out   *sample
	spans *spanLog // nil in untraced runs
	// parent is the span of the pass; tid is the driver's track in the
	// trace viewer.
	parent uint64
	tid    int
	alloc  [1]metrics.Sample
}

func newPlayer(spans *spanLog, parent uint64, tid int) *player {
	p := &player{out: &sample{}, spans: spans, parent: parent, tid: tid}
	p.alloc[0].Name = "/gc/heap/allocs:bytes"
	return p
}

// live is one open session and its position in its trace.
type live struct {
	s      *specdb.Session
	ut     *userTrace
	next   int // index of the next event
	goIdx  int // index of the next GO
	spanID uint64
	start  time.Time
}

func (p *player) open(s *specdb.Session, ut *userTrace) *live {
	l := &live{s: s, ut: ut, start: time.Now()}
	if p.spans != nil {
		l.spanID = p.spans.newID()
	}
	return l
}

// step replays l's next event: Think up to the event's simulated instant,
// then the event's own call.
func (p *player) step(l *live) {
	ev := l.ut.events[l.next]
	l.next++
	if d := time.Duration(ev.At()) - l.s.Now(); d >= 0 {
		// Think(0) still completes manipulations due at this instant, as
		// the trace harness does before every event.
		t0 := time.Now()
		err := l.s.Think(d)
		el := time.Since(t0)
		p.out.thinkS += el.Seconds()
		p.out.attempted++
		p.span("think", "core", l.spanID, t0, el)
		if err != nil {
			p.out.fail("session %d think: %v", l.ut.index, err)
		}
	}
	if ev.Kind == trace.EvGo {
		p.doGo(l)
		return
	}
	t0 := time.Now()
	err := edit(l.s, ev)
	el := time.Since(t0)
	p.out.editMs = append(p.out.editMs, ms(el))
	p.out.editS += el.Seconds()
	p.out.attempted++
	p.span(string(ev.Kind), "edit", l.spanID, t0, el)
	if err != nil {
		p.out.fail("session %d %s: %v", l.ut.index, ev.Kind, err)
	}
}

func (p *player) doGo(l *live) {
	t0 := time.Now()
	res, err := l.s.Go()
	el := time.Since(t0)
	p.out.goMs = append(p.out.goMs, ms(el))
	p.out.goS += el.Seconds()
	p.out.gos++
	p.out.attempted++
	p.span("go", "core", l.spanID, t0, el)
	idx := l.goIdx
	l.goIdx++
	if err != nil {
		p.out.fail("session %d go %d: %v", l.ut.index, idx, err)
		return
	}
	// The answer check is the benchmark's own work: its time and bytes are
	// taken out of the measured replay.
	c0 := time.Now()
	metrics.Read(p.alloc[:])
	a0 := p.alloc[0].Value.Uint64()
	got := fingerprint(res)
	ref := l.ut.refs[idx]
	p.out.simOn += got.sim
	p.out.simOff += ref.sim
	if got.rows != ref.rows || got.key != ref.key {
		p.out.fail("session %d go %d: answer differs from the spec-off reference (%d rows vs %d)", l.ut.index, idx, got.rows, ref.rows)
	}
	metrics.Read(p.alloc[:])
	p.out.checkAlloc += p.alloc[0].Value.Uint64() - a0
	p.out.checkTime += time.Since(c0)
}

// close ends l's session and checks its quiesce identities.
func (p *player) close(l *live) {
	p.out.attempted++
	if err := l.s.Close(); err != nil {
		p.out.fail("session %d close: %v", l.ut.index, err)
	}
	if l.next != len(l.ut.events) || l.goIdx != len(l.ut.refs) {
		p.out.fail("session %d closed after %d/%d events", l.ut.index, l.next, len(l.ut.events))
	}
	st := l.s.Stats()
	terminal := st.Completed + st.CanceledInvalidated + st.CanceledAtGo + st.CanceledOnClose +
		st.Aborted + st.Shed + st.DeadlineAborts
	if st.Issued != terminal {
		p.out.fail("session %d: issued %d != terminal states %d", l.ut.index, st.Issued, terminal)
	}
	if st.PredictedIssued != st.PredictedCompleted+st.PredictedCanceled {
		p.out.fail("session %d: predicted issued %d != completed %d + canceled %d",
			l.ut.index, st.PredictedIssued, st.PredictedCompleted, st.PredictedCanceled)
	}
	o := p.out
	o.issued += st.Issued
	o.completed += st.Completed
	o.hits += st.Hits
	o.misses += st.Misses
	o.wasteS += st.Waste.Seconds()
	o.dedupS += st.DedupSaved.Seconds()
	o.predIssued += st.PredictedIssued
	o.predGos += st.PredictedGos
	o.answerHits += st.AnswerCacheHits
	o.sharedBuilds += st.SharedBuilds
	o.attached += st.SharedAttached
	if p.spans != nil {
		p.spans.add(span{name: fmt.Sprintf("session %d", l.ut.index), cat: "session", id: l.spanID,
			parent: p.parent, session: l.spanID, tid: p.tid, start: l.start, dur: time.Since(l.start)})
	}
}

func (p *player) span(name, cat string, session uint64, start time.Time, dur time.Duration) {
	if p.spans == nil {
		return
	}
	p.spans.add(span{name: name, cat: cat, id: p.spans.newID(), parent: session, session: session,
		tid: p.tid, start: start, dur: dur})
}

// replaySequential replays each user in turn in its own session, cold-
// starting the pool before each one: the paper's single-user setting.
func (p *player) replaySequential(db *specdb.DB, open func() *specdb.Session, users []*userTrace) {
	for _, ut := range users {
		p.out.attempted++
		if err := db.ColdStart(); err != nil {
			p.out.fail("cold start: %v", err)
		}
		l := p.open(open(), ut)
		for l.next < len(ut.events) {
			p.step(l)
		}
		p.close(l)
	}
}

// replayMerged opens one session per user and replays all of their events
// merged by simulated timestamp (ties by user order), then closes them.
func (p *player) replayMerged(open func() *specdb.Session, users []*userTrace) {
	type item struct {
		at   float64
		user int
	}
	var order []item
	sessions := make([]*live, len(users))
	for i, ut := range users {
		sessions[i] = p.open(open(), ut)
		for _, ev := range ut.events {
			order = append(order, item{at: ev.AtSeconds, user: i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].at < order[b].at })
	for _, it := range order {
		p.step(sessions[it.user])
	}
	for _, l := range sessions {
		p.close(l)
	}
}

// edit issues one canvas edit through the Session API.
func edit(s *specdb.Session, ev trace.Event) error {
	switch ev.Kind {
	case trace.EvAddSelection:
		return s.AddSelection(ev.Sel.Rel, ev.Sel.Col, ev.Sel.Op, constant(ev.Sel.Const))
	case trace.EvRemoveSelection:
		return s.RemoveSelection(ev.Sel.Rel, ev.Sel.Col, ev.Sel.Op, constant(ev.Sel.Const))
	case trace.EvAddJoin:
		return s.AddJoin(ev.Join.LeftRel, ev.Join.LeftCol, ev.Join.RightRel, ev.Join.RightCol)
	case trace.EvRemoveJoin:
		return s.RemoveJoin(ev.Join.LeftRel, ev.Join.LeftCol, ev.Join.RightRel, ev.Join.RightCol)
	case trace.EvAddRelation:
		return s.AddRelation(ev.Rel)
	case trace.EvRemoveRelation:
		return s.RemoveRelation(ev.Rel)
	case trace.EvSetProjections:
		return s.SetProjections(ev.Projs...)
	case trace.EvClear:
		return s.Clear()
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
}

// constant converts a trace constant into a value Session.AddSelection
// accepts. The Session API has no date kind (it takes int, int64, float64
// and string), so a date travels as its int64 day count, which the binder
// compares with a date column numerically; the answers and simulated times
// are the same as with a date constant.
func constant(v trace.ValueJSON) any {
	switch v.Kind {
	case "float":
		return v.F
	case "string":
		return v.S
	default: // "int", "date"
		return v.I
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
