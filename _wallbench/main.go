// Command wallbench measures what specdb really costs in wall-clock time,
// bytes allocated and memory, by replaying synthetic user traces through the
// public Session API and timing every call from outside the program. Every
// GO answer is checked against a speculation-off reference. See README.md
// for the workloads and metrics.
//
// Run from the repository root:
//
//	bash _wallbench/run.sh --workload solo --seed 1 --seconds 14 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"specdb"
	"specdb/internal/harness"
	"specdb/internal/sql"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// workload is one set of inputs and options the benchmark replays.
type workload struct {
	name string
	// pool is the buffer pool size in pages.
	pool int
	// predict turns on whole-query prediction; a training pass then runs
	// during set-up and the measured passes follow it.
	predict bool
	// shared turns on cross-session speculation CSE.
	shared bool
	// drivers is the number of driver goroutines; with more than one, the
	// users are dealt round-robin and each goroutine replays its share as
	// concurrent sessions merged by simulated timestamp. With one, users
	// replay one after another, each in a cold-started pool.
	drivers int
	corpus  func(seed uint64) ([]*trace.Trace, error)
}

// The pool sizes are the paper's scaled 32 MB and 96 MB pools
// (harness.PoolPages32MB, harness.PoolPages96MB): the 145-page "100MB"
// dataset is three times the first and fits in the second.
var workloads = map[string]workload{
	"solo":     {name: "solo", pool: harness.PoolPages32MB, drivers: 1, corpus: userCorpus},
	"predict":  {name: "predict", pool: harness.PoolPages32MB, drivers: 1, predict: true, corpus: userCorpus},
	"shared64": {name: "shared64", pool: harness.PoolPages96MB, drivers: 2, shared: true, corpus: scaledCorpus},
}

// userCorpus is the three-user corpus of BENCH_spec.json, generated through
// the public API.
func userCorpus(seed uint64) ([]*trace.Trace, error) {
	docs, err := specdb.GenerateTraces(3, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*trace.Trace, len(docs))
	for i, d := range docs {
		if out[i], err = trace.Decode(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scaledCorpus is 64 short sessions of four queries each.
func scaledCorpus(seed uint64) ([]*trace.Trace, error) {
	return harness.ScaledCorpus(tpch.Vocabulary(), 64, seed)
}

const (
	scale      = "100MB"
	setupLoads = 3
	// The default seeds are those of BENCH_spec.json.
	defaultDataSeed  = 42
	defaultTraceSeed = 7
)

type config struct {
	w workload
	// orderSeed permutes the order in which users replay; see replayOrder.
	orderSeed uint64
	dataSeed  uint64
	traceSeed uint64
	seconds   float64
	traced    bool
	outDir    string
}

func main() {
	var (
		name      = flag.String("workload", "solo", "workload: solo, predict or shared64")
		orderSeed = flag.Uint64("seed", 0, "seed of the order in which users replay (0: the generated order)")
		dataSeed  = flag.Uint64("data-seed", defaultDataSeed, "seed of the generated TPC-H data")
		traceSeed = flag.Uint64("trace-seed", defaultTraceSeed, "seed of the generated user traces")
		seconds   = flag.Float64("seconds", 14, "how long to measure, in seconds (at least one replay pass runs)")
		traced    = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		outDir    = flag.String("out", ".bench_out", "directory for the traced run's spans and profiles")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "wallbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "wallbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	cfg := config{w: w, orderSeed: *orderSeed, dataSeed: *dataSeed, traceSeed: *traceSeed, seconds: *seconds,
		traced: *traced == 1, outDir: filepath.Join(*outDir, w.name)}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is a set-up database with its reference answers.
type env struct {
	db    *specdb.DB
	mgr   *specdb.SessionManager // nil when sessions are standalone
	users []*userTrace
	// setupS is the set-up time. loadS, execMs and trainS time its layers:
	// each LoadTPCH, each reference DB.Exec and the training pass.
	setupS float64
	loadS  []float64
	execMs []float64
	trainS float64
	// train is what predict's training pass observed (nil elsewhere).
	train *sample
}

func run(cfg config) (*result, error) {
	traces, err := cfg.w.corpus(cfg.traceSeed)
	if err != nil {
		return nil, fmt.Errorf("generate traces: %w", err)
	}
	res := &result{Metrics: map[string]metric{}}
	if cfg.traced {
		return tracedRun(cfg, traces, res)
	}

	e, err := setup(cfg, traces, nil, setupLoads)
	if err != nil {
		return nil, err
	}
	m := measure(cfg, e, nil, cfg.seconds)
	fold(res, e.train, m.s)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", e.setupS, "s")
	put("go_per_s", goPerS(m), "1/s")
	put("go_ms_p50", percentile(m.s.goMs, 0.50), "ms")
	put("go_ms_p90", percentile(m.s.goMs, 0.90), "ms")
	put("edit_ms_p50", percentile(m.s.editMs, 0.50), "ms")
	put("edit_ms_p97", percentile(m.s.editMs, 0.97), "ms")
	put("alloc_mb", m.allocMB, "MB")
	put("peak_rss_mb", peakRSSMB(), "MB")
	put("sim_relative_response_time", m.s.simOn/m.s.simOff, "ratio")
	return res, nil
}

// fold adds a sample's operation counts to the result.
func fold(res *result, samples ...*sample) {
	for _, s := range samples {
		if s == nil {
			continue
		}
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, f := range s.failures {
			fmt.Fprintf(os.Stderr, "wallbench: FAIL %s\n", f)
		}
	}
	res.Correct = res.Failed == 0
}

// setup prepares a run. It opens and loads the measured DB and the
// speculation-off reference DB loads times, keeping the last pair, answers
// every GO on the reference and, on predict, runs the training pass. The
// set-up time is the median time of a pair of loads plus the reference and
// the training pass: loading is cheap to repeat, while the other two take
// from five to thirty seconds and run once.
func setup(cfg config, traces []*trace.Trace, spans *spanLog, loads int) (*env, error) {
	w := cfg.w
	e := &env{}
	var ref *specdb.DB
	pairS := make([]float64, 0, loads)
	for i := 0; i < loads; i++ {
		ref, e.db = nil, nil
		runtime.GC()
		t0 := time.Now()
		ref = specdb.Open(specdb.Options{BufferPoolPages: w.pool})
		if err := ref.LoadTPCH(scale, cfg.dataSeed); err != nil {
			return nil, fmt.Errorf("load reference: %w", err)
		}
		t1 := time.Now()
		e.db = specdb.Open(specdb.Options{BufferPoolPages: w.pool, PredictFinals: w.predict, SharedSpeculation: w.shared})
		if err := e.db.LoadTPCH(scale, cfg.dataSeed); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		e.loadS = append(e.loadS, t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
		pairS = append(pairS, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := e.reference(ref, traces, w.drivers > 1, spans); err != nil {
		return nil, err
	}
	e.users = replayOrder(e.users, cfg.orderSeed)
	if w.predict || w.shared {
		e.mgr = e.db.NewSessionManager()
	}
	if w.predict {
		t1 := time.Now()
		p := newPlayer(nil, 0, 0)
		p.replaySequential(e.db, e.open, e.users)
		e.train = p.out
		e.trainS = time.Since(t1).Seconds()
	}
	e.setupS = median(pairS) + time.Since(t0).Seconds()
	return e, nil
}

// reference answers every GO of traces through DB.Exec on a speculation-off
// DB. Single-user corpora cold-start the pool before each user; concurrent
// corpora run all finals in GO-time order after one cold start, as the
// multi-user harness does.
func (e *env) reference(db *specdb.DB, traces []*trace.Trace, merged bool, spans *spanLog) error {
	type final struct {
		user, idx int
		at        float64
		sql       string
	}
	var all []final
	for u, tr := range traces {
		qs, err := trace.ExtractQueries(tr)
		if err != nil {
			return err
		}
		e.users = append(e.users, &userTrace{index: u, events: tr.Events, refs: make([]answer, len(qs))})
		for i, q := range qs {
			s := sql.RenderForm(q.Graph, q.Projs).String()
			e.users[u].stmts = append(e.users[u].stmts, s)
			all = append(all, final{user: u, idx: i, at: q.GoAt, sql: s})
		}
	}
	if merged {
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	}
	var sessionID uint64
	var endSession func()
	for i, f := range all {
		if i == 0 || (!merged && f.user != all[i-1].user) {
			if err := db.ColdStart(); err != nil {
				return err
			}
			if spans != nil {
				if endSession != nil {
					endSession()
				}
				sessionID, endSession = spans.begin(fmt.Sprintf("reference %d", f.user), "reference", 0, 0, 0)
			}
		}
		t0 := time.Now()
		res, err := db.Exec(f.sql)
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("reference: %s: %w", f.sql, err)
		}
		e.execMs = append(e.execMs, ms(el))
		if spans != nil {
			spans.add(span{name: "DB.Exec", cat: "engine", id: spans.newID(), parent: sessionID,
				session: sessionID, start: t0, dur: el})
		}
		e.users[f.user].refs[f.idx] = fingerprint(res)
	}
	if endSession != nil {
		endSession()
	}
	return nil
}

// replayOrder permutes the users by seed; seed 0 keeps the generated order.
// The order is the only input the seed changes. Single users replay in a
// cold-started pool with a profile of their own, so on solo every order
// does the same work; on predict the order in which the shared predictor
// meets the users changes what it predicts; on shared64 it changes which
// driver goroutine replays which session and how ties interleave. The data
// and the traces stay those of --data-seed and --trace-seed, so runs with
// different seeds measure the same corpus.
func replayOrder(users []*userTrace, seed uint64) []*userTrace {
	if seed == 0 {
		return users
	}
	out := make([]*userTrace, len(users))
	for i, j := range rand.New(rand.NewPCG(seed, 0x5eed)).Perm(len(users)) {
		out[i] = users[j]
	}
	return out
}

// open starts a session for the workload: under the shared manager when
// there is one, standalone otherwise.
func (e *env) open() *specdb.Session {
	if e.mgr != nil {
		return e.mgr.Open(specdb.SessionConfig{})
	}
	return e.db.NewSession(specdb.SessionConfig{})
}

// measurement is what the measured passes of one run observed.
type measurement struct {
	s       *sample
	passes  int
	wallS   float64 // wall time of the passes minus the answer checks
	allocMB float64 // per pass, answer checks excluded
	pool    specdb.PoolStats
	gc      gcDelta
}

// measure replays the corpus pass after pass until seconds have elapsed.
// The predict workload measures exactly one pass: every further pass would
// meet a predictor trained on more passes.
func measure(cfg config, e *env, spans *spanLog, seconds float64) *measurement {
	m := &measurement{s: &sample{}}
	// Every run starts measuring from a collected heap, whatever set-up
	// left behind.
	runtime.GC()
	pool0 := e.db.PoolStats()
	gc0 := readGC()
	start := time.Now()
	for m.passes == 0 || (!cfg.w.predict && time.Since(start).Seconds() < seconds) {
		e.pass(cfg.w, spans, m.s)
		m.passes++
	}
	wall := time.Since(start)
	gc1 := readGC()
	pool1 := e.db.PoolStats()
	m.wallS = (wall - m.s.checkTime).Seconds()
	m.allocMB = float64(gc1.allocBytes-gc0.allocBytes-m.s.checkAlloc) / float64(m.passes) / (1 << 20)
	m.gc = gc1.sub(gc0)
	m.pool = specdb.PoolStats{
		Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses,
		Writes: pool1.Writes - pool0.Writes, Fetches: pool1.Fetches - pool0.Fetches,
	}
	if m.pool.Fetches > 0 {
		m.pool.HitRatio = float64(m.pool.Hits) / float64(m.pool.Fetches)
	}
	return m
}

// pass replays the whole corpus once and checks that every speculative
// table is gone afterwards.
func (e *env) pass(w workload, spans *spanLog, into *sample) {
	var (
		passID  uint64
		endPass func()
	)
	if spans != nil {
		passID, endPass = spans.begin(w.name, "workload", 0, 0, 0)
	}
	if w.drivers == 1 {
		p := newPlayer(spans, passID, 1)
		p.replaySequential(e.db, e.open, e.users)
		into.add(p.out)
	} else {
		into.attempted++
		if err := e.db.ColdStart(); err != nil {
			into.fail("cold start: %v", err)
		}
		players := make([]*player, w.drivers)
		var wg sync.WaitGroup
		for g := range players {
			var share []*userTrace
			for i := g; i < len(e.users); i += w.drivers {
				share = append(share, e.users[i])
			}
			players[g] = newPlayer(spans, passID, g+1)
			wg.Add(1)
			go func(p *player) {
				defer wg.Done()
				p.replayMerged(e.open, share)
			}(players[g])
		}
		wg.Wait()
		for _, p := range players {
			into.add(p.out)
		}
	}
	if endPass != nil {
		endPass()
	}
	into.attempted++
	if n := len(e.db.Tables()); n != 6 {
		into.fail("%d tables in the catalog after every session closed, want 6", n)
	}
}

// gcDelta is the Go runtime's view of a measured interval.
type gcDelta struct {
	allocBytes uint64
	cycles     uint64
	gcCPU      float64 // seconds
	busyCPU    float64 // seconds of CPU time not idle
	pauseNs    uint64
}

func (a gcDelta) sub(b gcDelta) gcDelta {
	return gcDelta{allocBytes: a.allocBytes - b.allocBytes, cycles: a.cycles - b.cycles,
		gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU, pauseNs: a.pauseNs - b.pauseNs}
}

func readGC() gcDelta {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcDelta{allocBytes: s[0].Value.Uint64(), cycles: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), busyCPU: s[3].Value.Float64() - s[4].Value.Float64(), pauseNs: ms.PauseTotalNs}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the p-quantile of xs, interpolated linearly between the
// two nearest ranks so that it moves smoothly with the samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
