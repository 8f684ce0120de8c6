package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"specdb/internal/engine"
	"specdb/internal/exec"
	"specdb/internal/plan"
	"specdb/internal/sim"
	"specdb/internal/sql"
	"specdb/internal/tpch"
	"specdb/internal/trace"
)

// tracedRun is the run that explains the untraced numbers. It spends half
// of the measuring time untraced, for the baseline of trace_overhead_pct,
// and half with a span around every call and a CPU profile running. A
// layer probe then runs every GO's statement through the layers below the
// speculator on a private engine. The spans (Chrome trace-event JSON) and
// the CPU and heap profiles go to cfg.outDir.
func tracedRun(cfg config, traces []*trace.Trace, res *result) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	spans := newSpanLog()
	e, err := setup(cfg, traces, spans, 1)
	if err != nil {
		return nil, err
	}
	// predict's one measured pass uses up its trained environment, so its
	// baseline gets a second one, set up the same way.
	baseEnv := e
	if cfg.w.predict {
		if baseEnv, err = setup(cfg, traces, nil, 1); err != nil {
			return nil, err
		}
		fold(res, baseEnv.train)
	}
	base := measure(cfg, baseEnv, nil, cfg.seconds/2)
	fold(res, base.s)
	baseEnv = nil
	runtime.GC()

	cpu, err := os.Create(filepath.Join(cfg.outDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer cpu.Close()
	if err := pprof.StartCPUProfile(cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	m := measure(cfg, e, spans, cfg.seconds/2)
	pprof.StopCPUProfile()
	if err := cpu.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := writeProfile("heap", filepath.Join(cfg.outDir, "heap.pprof")); err != nil {
		return nil, err
	}
	fold(res, e.train, m.s)
	pr, err := probe(cfg, e, spans)
	if err != nil {
		return nil, err
	}
	res.Attempted += pr.attempted
	res.Failed += pr.failed
	res.Correct = res.Failed == 0
	if err := spans.writeChrome(filepath.Join(cfg.outDir, "spans.json")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	s, n := m.s, float64(m.passes)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("core.edit_s", s.editS/n, "s")
	put("core.think_s", s.thinkS/n, "s")
	put("core.go_s", s.goS/n, "s")
	put("core.issued", float64(s.issued)/n, "count")
	put("core.completed_ratio", ratio(s.completed, s.issued), "ratio")
	put("core.hit_rate", ratio(s.hits, s.hits+s.misses), "ratio")
	put("core.waste_s", s.wasteS/n, "s")
	put("core.predicted_issued", float64(s.predIssued)/n, "count")
	put("core.predicted_go_rate", ratio(s.predGos, s.gos), "ratio")
	put("core.predict_useful_ratio", ratio(s.predGos, s.predIssued), "ratio")
	put("core.answer_cache_hits", float64(s.answerHits)/n, "count")
	put("core.cse_shared_builds", float64(s.sharedBuilds)/n, "count")
	put("core.cse_attached", float64(s.attached)/n, "count")
	put("core.dedup_saved_s", s.dedupS/n, "s")
	put("plan.optimize_us_p50", percentile(pr.optimizeUs, 0.5), "us")
	put("plan.optimize_s", sum(pr.optimizeUs)/1e6, "s")
	put("exec.run_ms_p50", percentile(pr.runMs, 0.5), "ms")
	put("exec.run_s", sum(pr.runMs)/1e3, "s")
	put("exec.rows", float64(pr.rows), "count")
	put("exec.alloc_mb", float64(pr.allocBytes)/(1<<20), "MB")
	put("sql.parse_us_p50", percentile(pr.parseUs, 0.5), "us")
	put("engine.exec_ms_p50", percentile(e.execMs, 0.5), "ms")
	put("engine.exec_s", sum(e.execMs)/1e3, "s")
	put("buffer.fetches", float64(m.pool.Fetches)/n, "count")
	put("buffer.hit_ratio", m.pool.HitRatio, "ratio")
	put("buffer.misses", float64(m.pool.Misses)/n, "count")
	put("buffer.writes", float64(m.pool.Writes)/n, "count")
	put("tpch.load_s", median(e.loadS), "s")
	put("core.train_s", e.trainS, "s")
	put("gc.cycles", float64(m.gc.cycles)/n, "count")
	put("gc.cpu_fraction", m.gc.gcCPU/m.gc.busyCPU, "ratio")
	put("gc.pause_ms", float64(m.gc.pauseNs)/1e6/n, "ms")
	put("trace_overhead_pct", 100*(1-goPerS(m)/goPerS(base)), "%")
	put("fail_ratio", ratio(res.Failed, res.Attempted), "ratio")
	return res, nil
}

func goPerS(m *measurement) float64 { return float64(m.s.gos) / m.wallS }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeProfile(name, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return pprof.Lookup(name).WriteTo(f, 0)
}

// probeResult is what the layer probe measured.
type probeResult struct {
	parseUs, optimizeUs, runMs []float64
	rows                       int64
	allocBytes                 uint64
	attempted, failed          int
}

// probe runs every GO's statement through sql.Parse, plan.Bind,
// plan.Optimize, Node.Build and exec.Collect on a private engine loaded
// with the same data, timing each layer. Single-user workloads cold-start
// the pool before each user's statements, as the reference does. Each
// statement's row count must match its reference answer.
func probe(cfg config, e *env, spans *spanLog) (*probeResult, error) {
	sc, err := tpch.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{BufferPoolPages: cfg.w.pool})
	if err := tpch.Load(eng, sc, cfg.dataSeed); err != nil {
		return nil, fmt.Errorf("probe load: %w", err)
	}
	opts := plan.Options{Rates: eng.Rates()}
	// The engine's own work-memory budget: a quarter of the pool.
	workMem := int64(cfg.w.pool) * int64(eng.Disk.PageSize()) / 4
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	pr := &probeResult{}
	rootID, endRoot := spans.begin("probe", "probe", 0, 0, 0)
	defer endRoot()
	for u, ut := range e.users {
		if u == 0 || cfg.w.drivers == 1 {
			if err := eng.ColdStart(); err != nil {
				return nil, err
			}
		}
		for i, src := range ut.stmts {
			pr.attempted++
			stmtID, endStmt := spans.begin(fmt.Sprintf("statement %d.%d", u, i), "probe", rootID, 0, 0)
			layer := func(name string, fn func() error) (time.Duration, error) {
				_, end := spans.begin(name, "probe", stmtID, stmtID, 0)
				t0 := time.Now()
				err := fn()
				el := time.Since(t0)
				end()
				return el, err
			}
			var (
				stmt sql.Statement
				q    *plan.Query
				node plan.Node
				rows int
			)
			d, err := layer("parse", func() (err error) { stmt, err = sql.Parse(src); return err })
			if err != nil {
				return nil, fmt.Errorf("probe parse %q: %w", src, err)
			}
			pr.parseUs = append(pr.parseUs, float64(d)/float64(time.Microsecond))
			sel, ok := stmt.(*sql.SelectStmt)
			if !ok {
				return nil, fmt.Errorf("probe: %q is not a SELECT", src)
			}
			if _, err = layer("bind", func() (err error) { q, err = plan.Bind(eng.Catalog, sel); return err }); err != nil {
				return nil, fmt.Errorf("probe bind %q: %w", src, err)
			}
			d, err = layer("optimize", func() (err error) { node, err = plan.Optimize(eng.Catalog, q, opts); return err })
			if err != nil {
				return nil, fmt.Errorf("probe optimize %q: %w", src, err)
			}
			pr.optimizeUs = append(pr.optimizeUs, float64(d)/float64(time.Microsecond))
			metrics.Read(alloc)
			a0 := alloc[0].Value.Uint64()
			d, err = layer("execute", func() error {
				it, err := node.Build(&exec.Context{Meter: sim.NewMeter(), WorkMemBytes: workMem})
				if err != nil {
					return err
				}
				out, err := exec.Collect(it)
				rows = len(out)
				return err
			})
			metrics.Read(alloc)
			pr.allocBytes += alloc[0].Value.Uint64() - a0
			endStmt()
			if err != nil {
				return nil, fmt.Errorf("probe execute %q: %w", src, err)
			}
			pr.runMs = append(pr.runMs, ms(d))
			pr.rows += int64(rows)
			if int64(rows) != ut.refs[i].rows {
				pr.failed++
				fmt.Fprintf(os.Stderr, "wallbench: FAIL probe %q: %d rows, reference %d\n", src, rows, ut.refs[i].rows)
			}
		}
	}
	return pr, nil
}
