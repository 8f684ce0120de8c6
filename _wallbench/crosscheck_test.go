package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestCrossCheckBENCHSpec replays solo and predict through the public API
// on the default seeds and requires the simulated numbers that the harness
// recorded in BENCH_spec.json: the Session-API replay must be the same
// experiment as the harness replay, only timed from outside.
func TestCrossCheckBENCHSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two workloads (about a minute)")
	}
	raw, err := os.ReadFile("../BENCH_spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		ImprovementPct  float64 `json:"improvement_pct"`
		Issued          int     `json:"issued"`
		Hits            int     `json:"hits"`
		PredictedGos    int     `json:"predicted_gos"`
		PredictedIssued int     `json:"predicted_issued"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}

	solo := replayOnce(t, workloads["solo"])
	if got := 100 * (1 - solo.simOn/solo.simOff); math.Abs(got-bench.ImprovementPct) > 1e-9 {
		t.Errorf("solo improvement_pct = %.6f, BENCH_spec.json %.6f", got, bench.ImprovementPct)
	}
	if solo.issued != bench.Issued || solo.hits != bench.Hits {
		t.Errorf("solo issued/hits = %d/%d, BENCH_spec.json %d/%d", solo.issued, solo.hits, bench.Issued, bench.Hits)
	}

	pred := replayOnce(t, workloads["predict"])
	if pred.predGos != bench.PredictedGos || pred.predIssued != bench.PredictedIssued {
		t.Errorf("predict predicted_gos/predicted_issued = %d/%d, BENCH_spec.json %d/%d",
			pred.predGos, pred.predIssued, bench.PredictedGos, bench.PredictedIssued)
	}
}

// replayOnce sets up w on the default seeds and measures one pass, failing
// the test on any failed operation.
func replayOnce(t *testing.T, w workload) *sample {
	t.Helper()
	cfg := config{w: w, dataSeed: defaultDataSeed, traceSeed: defaultTraceSeed}
	traces, err := w.corpus(cfg.traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(cfg, traces, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := measure(cfg, e, nil, 0)
	for _, s := range []*sample{e.train, m.s} {
		if s != nil && s.failed > 0 {
			t.Fatalf("%s: %d failed operations, first: %v", w.name, s.failed, s.failures)
		}
	}
	return m.s
}
